package durable_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/iofault"
	"repro/internal/live"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// TestCheckpointRoundTrip checkpoints a session at prefixes of a random run,
// recovers it, finishes the run from the recovered session, and checks the
// labels are byte-identical to Scheme.LabelRun of the full run. It also
// checks the checkpoint file is the journal image of the prefix. The paper
// example is checked at every prefix; the BioAID run puts recursive
// expansions through recovery at every fifth prefix, plus the last.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   *workflow.Specification
		target int
		seed   int64
		stride int
	}{
		{"paper", workloads.PaperExample(), 40, 7, 1},
		{"bioaid", workloads.BioAID(), 1500, 13, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scheme, err := core.NewScheme(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			steps := script(t, scheme, tc.target, tc.seed)
			for k := 0; k <= len(steps); k++ {
				if k%tc.stride != 0 && k != len(steps) {
					continue
				}
				fs := iofault.New(iofault.KeepNone)
				opts := durable.Options{SegmentSteps: 16, SyncEvery: durable.SyncOnCheckpoint, FS: fs}
				s, err := durable.Create(scheme, crashDir, opts)
				if err != nil {
					t.Fatal(err)
				}
				applyRange(t, s, steps, 0, k)
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("k=%d: checkpoint: %v", k, err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				want, err := live.EncodeJournal(steps[:k])
				if err != nil {
					t.Fatal(err)
				}
				if got := readFS(t, fs, checkpointPath(crashDir, k)); !bytes.Equal(got, want) {
					t.Fatalf("k=%d: checkpoint file is not the journal image of the prefix", k)
				}

				r, err := durable.Recover(scheme, crashDir, opts)
				if err != nil {
					t.Fatalf("k=%d: recover: %v", k, err)
				}
				if info := r.Recovery(); info.CheckpointStep != k || info.ReplayedSteps != 0 {
					t.Fatalf("k=%d: recovery info %+v", k, info)
				}
				applyRange(t, r, steps, k, len(steps))
				checkLabels(t, scheme, r, steps)
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCheckpointAtEpochZero: a checkpoint taken before any step commits an
// empty prefix, and compaction must keep the file the manifest names.
func TestCheckpointAtEpochZero(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 10)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := durable.Create(scheme, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := durable.Recover(scheme, dir, durable.Options{})
	if err != nil {
		t.Fatalf("recovering after a checkpoint at epoch 0: %v", err)
	}
	if got := int(r.Live().Epoch()); got != 5 || r.Recovery().ReplayedSteps != 5 {
		t.Fatalf("recovered at epoch %d replaying %d steps, want 5 and 5", got, r.Recovery().ReplayedSteps)
	}
	checkLabels(t, scheme, r, steps)
	r.Close()
}

func checkpointPath(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%010d.fvlc", step))
}

func readFS(t *testing.T, fs durable.FS, path string) []byte {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointRejectsForgedPayloads replaces the committed checkpoint of a
// closed session with a forged file. Except for the bit flip and the
// truncation, which the manifest's checksum must catch, each case rewrites
// the MANIFEST with the forged file's length and CRC-32, so it reaches the
// journal decoder and the replay. Every case must fail with
// ErrCorruptCheckpoint, and none with ErrCorruptJournal, which would report
// the damage in the segments.
func TestCheckpointRejectsForgedPayloads(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := script(t, scheme, 40, 7)
	k := len(steps) / 2
	if k < 2 {
		t.Fatalf("prefix %d is too short for the cases", k)
	}
	encode := func(reqs []live.StepRequest) []byte {
		data, err := live.EncodeJournal(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	edit := func(fn func(reqs []live.StepRequest)) []byte {
		reqs := append([]live.StepRequest(nil), steps[:k]...)
		fn(reqs)
		return encode(reqs)
	}
	// wrongProd is a production that cannot expand the start instance, which
	// the first step expands.
	g := spec.Grammar
	wrongProd := 0
	for i, p := range g.Productions {
		if p.LHS != g.Start {
			wrongProd = i + 1
			break
		}
	}
	// A checkpoint of the retired format: FVLCKPT\x02 framing around a
	// payload.
	payload := encode(steps[:k])[8:]
	retired := []byte("FVLCKPT\x02")
	retired = binary.LittleEndian.AppendUint32(retired, crc32.ChecksumIEEE(payload))
	retired = binary.LittleEndian.AppendUint64(retired, uint64(len(payload)))
	retired = append(retired, payload...)

	for _, tc := range []struct {
		name   string
		forge  func(valid []byte) []byte
		commit bool // rewrite the MANIFEST to match the forged file
	}{
		{"flipped bit", func(v []byte) []byte {
			v = append([]byte(nil), v...)
			v[len(v)-1] ^= 0x01
			return v
		}, false},
		{"truncated file", func(v []byte) []byte { return v[:len(v)-1] }, false},
		{"one step too many", func([]byte) []byte { return encode(steps[:k+1]) }, true},
		{"one step too few", func([]byte) []byte { return encode(steps[:k-1]) }, true},
		{"step names an unknown instance", func([]byte) []byte {
			return edit(func(r []live.StepRequest) { r[k-1].Instance = 1 << 20 })
		}, true},
		{"step applies the wrong production", func([]byte) []byte {
			return edit(func(r []live.StepRequest) { r[0].Prod = wrongProd })
		}, true},
		{"instance expanded twice", func([]byte) []byte {
			return edit(func(r []live.StepRequest) { r[k-1] = r[0] })
		}, true},
		{"retired FVLCKPT file", func([]byte) []byte { return retired }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := forgeableSession(t, scheme, steps, k)
			ckpt := checkpointPath(dir, k)
			valid, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			forged := tc.forge(valid)
			if err := os.WriteFile(ckpt, forged, 0o666); err != nil {
				t.Fatal(err)
			}
			if tc.commit {
				commitCheckpoint(t, dir, forged)
			}
			_, err = durable.Recover(scheme, dir, durable.Options{})
			if !errors.Is(err, faults.ErrCorruptCheckpoint) || errors.Is(err, faults.ErrCorruptJournal) {
				t.Fatalf("want ErrCorruptCheckpoint alone, got %v", err)
			}
		})
	}

	// The control: a valid checkpoint committed by the same rewrite recovers,
	// so the cases above fail on what they forge.
	dir := forgeableSession(t, scheme, steps, k)
	commitCheckpoint(t, dir, encode(steps[:k]))
	r, err := durable.Recover(scheme, dir, durable.Options{})
	if err != nil {
		t.Fatalf("recommitted valid checkpoint: %v", err)
	}
	checkLabels(t, scheme, r, steps)
	r.Close()
}

// forgeableSession writes a closed session with a checkpoint at step k and
// two more steps in the journal, and returns its directory.
func forgeableSession(t *testing.T, scheme *core.Scheme, steps []live.StepRequest, k int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := durable.Create(scheme, dir, durable.Options{SegmentSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, 0, k)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyRange(t, s, steps, k, k+2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// commitCheckpoint rewrites the MANIFEST so it names data, by length and
// CRC-32, as the checkpoint at its current step.
func commitCheckpoint(t *testing.T, dir string, data []byte) {
	t.Helper()
	path := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := durable.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	m.CheckpointBytes, m.CheckpointCRC = len(data), crc32.ChecksumIEEE(data)
	if raw, err = durable.EncodeManifest(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusesForeignSpec: a directory recovered under a scheme of
// another specification, or of the same specification but the other scheme
// kind, fails with ErrForeignLabel — before the first checkpoint as well as
// after it.
func TestRecoverRefusesForeignSpec(t *testing.T) {
	scheme := testScheme(t)
	steps := script(t, scheme, 30, 12)
	other, err := core.NewScheme(workloads.BioAID())
	if err != nil {
		t.Fatal(err)
	}
	basic, err := core.NewSchemeBasic(scheme.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, checkpoint := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "sess")
		s, err := durable.Create(scheme, dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		applyRange(t, s, steps, 0, 6)
		if checkpoint {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for name, foreign := range map[string]*core.Scheme{"other spec": other, "basic kind": basic} {
			if _, err := durable.Recover(foreign, dir, durable.Options{}); !errors.Is(err, faults.ErrForeignLabel) {
				t.Fatalf("checkpoint %v, %s: want ErrForeignLabel, got %v", checkpoint, name, err)
			}
		}
		r, err := durable.Recover(scheme, dir, durable.Options{})
		if err != nil {
			t.Fatalf("checkpoint %v: recovering under the session's own scheme: %v", checkpoint, err)
		}
		r.Close()
	}
}
