package durable_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/workloads"
)

// testScheme builds the paper-example scheme once per test.
func testScheme(t *testing.T) *core.Scheme {
	t.Helper()
	scheme, err := core.NewScheme(workloads.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	return scheme
}

// script derives a random run and returns its step sequence.
func script(t *testing.T, scheme *core.Scheme, target int, seed int64) []live.StepRequest {
	t.Helper()
	r, err := workloads.RandomRun(scheme.Spec, workloads.RunOptions{
		TargetSize: target,
		Rand:       rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]live.StepRequest, len(r.Steps))
	for i, st := range r.Steps {
		steps[i] = live.StepRequest{Instance: st.Instance, Prod: st.Prod}
	}
	return steps
}

// applyRange drives steps[from:to] into the session.
func applyRange(t *testing.T, s *durable.Session, steps []live.StepRequest, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := s.Live().Apply(steps[i].Instance, steps[i].Prod); err != nil {
			t.Fatalf("applying step %d: %v", i+1, err)
		}
	}
}

// checkLabels asserts the session's published labels are byte-identical to
// batch labeling (Scheme.LabelRun) of the run truncated to the session's
// epoch.
func checkLabels(t *testing.T, scheme *core.Scheme, s *durable.Session, steps []live.StepRequest) {
	t.Helper()
	prefix := s.Live().Current()
	k := int(prefix.Epoch())
	r := run.New(scheme.Spec)
	for i := 0; i < k; i++ {
		if _, err := r.Apply(steps[i].Instance, steps[i].Prod); err != nil {
			t.Fatalf("rebuilding prefix step %d: %v", i+1, err)
		}
	}
	want, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	if prefix.Items() != len(r.Items) {
		t.Fatalf("epoch %d: session labels %d items, batch run has %d", k, prefix.Items(), len(r.Items))
	}
	codec := scheme.Codec()
	for id := 1; id <= len(r.Items); id++ {
		gotL, ok := prefix.Label(id)
		if !ok {
			t.Fatalf("epoch %d: item %d unlabeled in session", k, id)
		}
		wantL, ok := want.Label(id)
		if !ok {
			t.Fatalf("epoch %d: item %d unlabeled by LabelRun", k, id)
		}
		gb, gn := codec.Encode(gotL)
		wb, wn := codec.Encode(wantL)
		if gn != wn || !bytes.Equal(gb, wb) {
			t.Fatalf("epoch %d: item %d label diverges from batch labeling", k, id)
		}
	}
}

func TestDurableCreateCheckpointRecover(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 60, 1)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 4}

	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	third := len(steps) / 3
	applyRange(t, s, steps, 0, third)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, third, 2*third)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	info := r.Recovery()
	if info == nil || info.CheckpointStep != third {
		t.Fatalf("recovery info %+v, want checkpoint at %d", info, third)
	}
	if info.ReplayedSteps != 2*third-third {
		t.Fatalf("replayed %d steps, want %d (tail only)", info.ReplayedSteps, third)
	}
	if got := int(r.Live().Epoch()); got != 2*third {
		t.Fatalf("recovered at epoch %d, want %d", got, 2*third)
	}
	checkLabels(t, scheme, r, steps)

	// The recovered session keeps going: finish the run, close, recover
	// again with no checkpoint advance — the whole tail replays.
	applyRange(t, r, steps, 2*third, len(steps))
	checkLabels(t, scheme, r, steps)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(r2.Live().Epoch()); got != len(steps) {
		t.Fatalf("second recovery at epoch %d, want %d", got, len(steps))
	}
	if r2.Recovery().ReplayedSteps != len(steps)-third {
		t.Fatalf("second recovery replayed %d, want %d", r2.Recovery().ReplayedSteps, len(steps)-third)
	}
	checkLabels(t, scheme, r2, steps)
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCompactsSegments(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 60, 2)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 4}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, len(steps))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".fvlj" {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments survive a full checkpoint, want only the tail segment", segs)
	}
	r, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovery().ReplayedSteps != 0 {
		t.Fatalf("replayed %d steps after full checkpoint", r.Recovery().ReplayedSteps)
	}
	checkLabels(t, scheme, r, steps)
	r.Close()
}

func TestCreateRefusesExistingSession(t *testing.T) {
	scheme := testScheme(t)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := durable.Create(scheme, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := durable.Create(scheme, dir, durable.Options{}); err == nil {
		t.Fatal("Create over an existing session succeeded")
	}
	if _, err := durable.Create(nil, filepath.Join(t.TempDir(), "nil"), durable.Options{}); err == nil {
		t.Fatal("Create with a nil scheme succeeded")
	}
	if _, err := durable.Create(scheme, filepath.Join(t.TempDir(), "neg"), durable.Options{SegmentSteps: -1}); err == nil {
		t.Fatal("Create with a negative segment capacity succeeded")
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".fvlj" && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return filepath.Join(dir, last)
}

func TestRecoverEmptyTailSegment(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 3)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 4}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 8) // exactly two full segments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash right after rotation leaves a header-only segment at the
	// epoch: zero records is a valid journal.
	header := []byte("FVLJRNL\x01")
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000008.fvlj"), header, 0o666); err != nil {
		t.Fatal(err)
	}
	r, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatalf("recovering with header-only tail segment: %v", err)
	}
	if got := int(r.Live().Epoch()); got != 8 {
		t.Fatalf("epoch %d, want 8", got)
	}
	checkLabels(t, scheme, r, steps)
	// The empty segment is the active tail: appending continues into it.
	applyRange(t, r, steps, 8, 12)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(r2.Live().Epoch()); got != 12 {
		t.Fatalf("epoch %d after continuing into empty segment, want 12", got)
	}
	checkLabels(t, scheme, r2, steps)
	r2.Close()
}

func TestRecoverCheckpointNewerThanJournalTail(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 4)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 4}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the whole journal: the checkpoint alone must carry recovery.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".fvlj" {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatalf("recovering from checkpoint newer than tail: %v", err)
	}
	if got := int(r.Live().Epoch()); got != 10 {
		t.Fatalf("epoch %d, want 10", got)
	}
	if r.Recovery().ReplayedSteps != 0 {
		t.Fatalf("replayed %d steps, want 0", r.Recovery().ReplayedSteps)
	}
	checkLabels(t, scheme, r, steps)
	// Appending opens a fresh segment at the epoch.
	applyRange(t, r, steps, 10, 14)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(r2.Live().Epoch()); got != 14 {
		t.Fatalf("epoch %d after new tail, want 14", got)
	}
	checkLabels(t, scheme, r2, steps)
	r2.Close()
}

func TestRecoverTornTail(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 5)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 8}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves an incomplete trailing record.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x80}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatalf("default recovery of torn tail: %v", err)
	}
	if !r.Recovery().TornTruncated {
		t.Fatal("TornTruncated not reported")
	}
	if got := int(r.Live().Epoch()); got != 6 {
		t.Fatalf("epoch %d after truncation, want 6", got)
	}
	checkLabels(t, scheme, r, steps)
	// The truncated segment accepts appends again.
	applyRange(t, r, steps, 6, 10)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Recovery().TornTruncated {
		t.Fatal("second recovery still sees a torn tail")
	}
	if got := int(r2.Live().Epoch()); got != 10 {
		t.Fatalf("epoch %d, want 10", got)
	}
	checkLabels(t, scheme, r2, steps)
	r2.Close()
}

func TestRecoverInvalidStep(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 6)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 64}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a record that decodes cleanly but names an instance the run
	// does not have.
	rec := binary.AppendUvarint(nil, 9999)
	rec = binary.AppendUvarint(rec, 1)
	f, err := os.OpenFile(lastSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := durable.Recover(scheme, dir, opts); !errors.Is(err, faults.ErrInvalidStep) {
		t.Fatalf("replaying an inapplicable step: want ErrInvalidStep, got %v", err)
	}
}

func TestRecoverMissingCheckpoint(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 7)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := durable.Create(scheme, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 8)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "ckpt-0000000008.fvlc")); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Recover(scheme, dir, durable.Options{}); !errors.Is(err, faults.ErrCorruptCheckpoint) {
		t.Fatalf("manifest naming a missing checkpoint: want ErrCorruptCheckpoint, got %v", err)
	}
}

func TestRecoverJournalGap(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 60, 8)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 4}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 12)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove a middle segment no checkpoint covers: steps 5..8 are gone.
	if err := os.Remove(filepath.Join(dir, "seg-0000000004.fvlj")); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Recover(scheme, dir, opts); !errors.Is(err, faults.ErrCorruptJournal) {
		t.Fatalf("journal gap: want ErrCorruptJournal, got %v", err)
	}
}

func TestRecoverIgnoresUncommittedCheckpoint(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 9)
	dir := filepath.Join(t.TempDir(), "sess")
	opts := durable.Options{SegmentSteps: 4}
	s, err := durable.Create(scheme, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 6)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 6, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash between checkpoint write and manifest rewrite leaves a newer
	// checkpoint file the manifest never came to reference — even a fully
	// valid-looking one must be ignored (the manifest is the commit point)
	// and cleaned up.
	orphan := filepath.Join(dir, "ckpt-0000000010.fvlc")
	if err := os.WriteFile(orphan, []byte("FVLCKPT\x01garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	r, err := durable.Recover(scheme, dir, opts)
	if err != nil {
		t.Fatalf("recovering with uncommitted checkpoint present: %v", err)
	}
	if r.Recovery().CheckpointStep != 6 {
		t.Fatalf("recovered from checkpoint %d, want the committed 6", r.Recovery().CheckpointStep)
	}
	if got := int(r.Live().Epoch()); got != 10 {
		t.Fatalf("epoch %d, want 10", got)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("uncommitted checkpoint not removed by recovery")
	}
	checkLabels(t, scheme, r, steps)
	r.Close()
}

func TestRecoverCorruptManifest(t *testing.T) {
	scheme := testScheme(t)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := durable.Create(scheme, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "MANIFEST")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Recover(scheme, dir, durable.Options{}); !errors.Is(err, faults.ErrCorruptManifest) {
		t.Fatalf("corrupt manifest: want ErrCorruptManifest, got %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	spec := sha256.Sum256([]byte("spec"))
	cases := []durable.Manifest{
		{SegmentSteps: 1},
		{SegmentSteps: 1024, Spec: spec},
		{SegmentSteps: 7, Spec: spec, HasCheckpoint: true, CheckpointStep: 0, CheckpointBytes: 8, CheckpointCRC: 0xdeadbeef},
		{SegmentSteps: 1 << 20, HasCheckpoint: true, CheckpointStep: 123456, CheckpointBytes: 250000, CheckpointCRC: 1},
	}
	for _, m := range cases {
		data, err := durable.EncodeManifest(m)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		got, err := durable.DecodeManifest(data)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
	}
	if _, err := durable.EncodeManifest(durable.Manifest{SegmentSteps: 0}); err == nil {
		t.Fatal("zero segment capacity encoded")
	}
	for _, m := range []durable.Manifest{
		{SegmentSteps: 8, CheckpointStep: 3},
		{SegmentSteps: 8, CheckpointBytes: 3},
		{SegmentSteps: 8, CheckpointCRC: 3},
	} {
		if _, err := durable.EncodeManifest(m); err == nil {
			t.Fatalf("checkpoint field without checkpoint flag encoded: %+v", m)
		}
	}

	// The payload layout, built by hand: capacity, spec identity, flag,
	// step, length, CRC-32.
	v2 := binary.AppendUvarint(nil, 64)
	v2 = append(v2, spec[:]...)
	v2 = append(v2, 1)
	v2 = binary.AppendUvarint(v2, 40)
	v2 = binary.AppendUvarint(v2, 100)
	v2 = binary.LittleEndian.AppendUint32(v2, 0xcafe)
	m, err := durable.DecodeManifest(manifestBytes("FVLMANI\x02", v2))
	want := durable.Manifest{SegmentSteps: 64, Spec: spec, HasCheckpoint: true, CheckpointStep: 40, CheckpointBytes: 100, CheckpointCRC: 0xcafe}
	if err != nil || m != want {
		t.Fatalf("hand-built manifest decoded as %+v, %v; want %+v", m, err, want)
	}
	if _, err := durable.DecodeManifest(manifestBytes("FVLMANI\x02", append(v2, 0))); !errors.Is(err, faults.ErrCorruptManifest) {
		t.Fatalf("trailing manifest byte: want ErrCorruptManifest, got %v", err)
	}

	// A version-1 manifest (capacity, flag, step) is refused, never read by
	// a second decoder.
	v1 := binary.AppendUvarint(nil, 64)
	v1 = append(v1, 1)
	v1 = binary.AppendUvarint(v1, 40)
	if _, err := durable.DecodeManifest(manifestBytes("FVLMANI\x01", v1)); !errors.Is(err, faults.ErrCorruptManifest) {
		t.Fatalf("version-1 manifest: want ErrCorruptManifest, got %v", err)
	}
}

// manifestBytes frames a manifest payload by hand — magic, CRC, length — so
// tests can build forms the encoder does not write.
func manifestBytes(magic string, payload []byte) []byte {
	buf := []byte(magic)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	return append(buf, payload...)
}
