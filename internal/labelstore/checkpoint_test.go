package labelstore_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/labelstore"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// randomSteps derives a random run and returns its step sequence.
func randomSteps(t testing.TB, scheme *core.Scheme, target int, seed int64) []live.StepRequest {
	t.Helper()
	r, err := workloads.RandomRun(scheme.Spec, workloads.RunOptions{
		TargetSize: target,
		Rand:       rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("deriving random run: %v", err)
	}
	steps := make([]live.StepRequest, len(r.Steps))
	for i, st := range r.Steps {
		steps[i] = live.StepRequest{Instance: st.Instance, Prod: st.Prod}
	}
	return steps
}

// sessionAt drives a fresh session through the first k steps.
func sessionAt(t testing.TB, scheme *core.Scheme, steps []live.StepRequest, k int) *live.Session {
	t.Helper()
	sess, err := live.NewSession(scheme)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := sess.Apply(steps[i].Instance, steps[i].Prod); err != nil {
			t.Fatalf("applying step %d: %v", i+1, err)
		}
	}
	return sess
}

// checkpointAt captures a checkpoint of a fresh session after the first k
// steps.
func checkpointAt(t testing.TB, scheme *core.Scheme, steps []live.StepRequest, k int) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := sessionAt(t, scheme, steps, k).Exclusive(func(r *run.Run, labeler *core.RunLabeler) error {
		return labelstore.SaveCheckpoint(&buf, scheme, r, labeler)
	})
	if err != nil {
		t.Fatalf("checkpointing at step %d: %v", k, err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip captures a checkpoint at prefixes of a random
// run, restores it, finishes the run from the restored session, and checks
// the final labels are byte-identical to Scheme.LabelRun on an independently
// derived copy of the full run. The paper example is checked at every
// prefix; the BioAID run puts recursive expansions through the replayed
// restore at sampled prefixes (every stride-th, plus the last).
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
			steps := randomSteps(t, scheme, tc.target, tc.seed)

			full := run.New(tc.spec)
			for _, req := range steps {
				if _, err := full.Apply(req.Instance, req.Prod); err != nil {
					t.Fatal(err)
				}
			}
			want, err := scheme.LabelRun(full)
			if err != nil {
				t.Fatal(err)
			}
			codec := scheme.Codec()

			for k := 0; k <= len(steps); k++ {
				if k%tc.stride != 0 && k != len(steps) {
					continue
				}
				blob := checkpointAt(t, scheme, steps, k)
				st, err := labelstore.LoadCheckpointBytes(blob, scheme)
				if err != nil {
					t.Fatalf("k=%d: LoadCheckpointBytes: %v", k, err)
				}
				if len(st.Run.Steps) != k {
					t.Fatalf("k=%d: checkpoint records %d steps", k, len(st.Run.Steps))
				}
				sess, err := live.Restore(scheme, st.Run, st.Labeler)
				if err != nil {
					t.Fatalf("k=%d: live.Restore: %v", k, err)
				}
				for i := k; i < len(steps); i++ {
					if _, err := sess.Apply(steps[i].Instance, steps[i].Prod); err != nil {
						t.Fatalf("k=%d: continuing at step %d: %v", k, i+1, err)
					}
				}
				prefix := sess.Current()
				if got, wantN := prefix.Items(), len(full.Items); got != wantN {
					t.Fatalf("k=%d: restored session labels %d items, want %d", k, got, wantN)
				}
				for id := 1; id <= len(full.Items); id++ {
					gotL, ok := prefix.Label(id)
					if !ok {
						t.Fatalf("k=%d: item %d unlabeled after restore", k, id)
					}
					wantL, ok := want.Label(id)
					if !ok {
						t.Fatalf("item %d unlabeled by LabelRun", id)
					}
					gb, gn := codec.Encode(gotL)
					wb, wn := codec.Encode(wantL)
					if gn != wn || !bytes.Equal(gb, wb) {
						t.Fatalf("k=%d: item %d label diverges from LabelRun", k, id)
					}
				}
			}
		})
	}
}

// TestCheckpointDeterministic asserts two checkpoints of the same state are
// byte-identical.
func TestCheckpointDeterministic(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := randomSteps(t, scheme, 30, 3)
	k := len(steps) / 2
	if !bytes.Equal(checkpointAt(t, scheme, steps, k), checkpointAt(t, scheme, steps, k)) {
		t.Fatal("two checkpoints of the same state differ")
	}
}

// TestCheckpointRejectsCorruption flips every byte of a valid checkpoint in
// turn and requires each mutation to fail with ErrCorruptCheckpoint (or be
// rejected as foreign — a payload flip can only land in the embedded spec),
// never to panic or load.
func TestCheckpointRejectsCorruption(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := randomSteps(t, scheme, 20, 11)
	blob := checkpointAt(t, scheme, steps, len(steps)/2)

	if _, err := labelstore.LoadCheckpointBytes(blob, scheme); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	stride := 1
	if len(blob) > 512 {
		stride = len(blob) / 512
	}
	for off := 0; off < len(blob); off += stride {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		_, err := labelstore.LoadCheckpointBytes(mut, scheme)
		if err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		}
		if !errors.Is(err, faults.ErrCorruptCheckpoint) && !errors.Is(err, faults.ErrForeignLabel) {
			t.Fatalf("flip at offset %d: unclassified error %v", off, err)
		}
	}

	if _, err := labelstore.LoadCheckpointBytes(blob[:15], scheme); !errors.Is(err, faults.ErrCorruptCheckpoint) {
		t.Fatalf("truncated checkpoint: want ErrCorruptCheckpoint, got %v", err)
	}
}

// TestCheckpointForeignScheme loads a checkpoint against a scheme of a
// different specification and expects ErrForeignLabel, not corruption.
func TestCheckpointForeignScheme(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := randomSteps(t, scheme, 20, 5)
	blob := checkpointAt(t, scheme, steps, len(steps)/2)

	other, err := core.NewScheme(workloads.BioAID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := labelstore.LoadCheckpointBytes(blob, other); !errors.Is(err, faults.ErrForeignLabel) {
		t.Fatalf("foreign checkpoint: want ErrForeignLabel, got %v", err)
	}
	// The same artifact under the basic scheme of the same spec is foreign
	// too: its labels were written under the compact codec.
	basic, err := core.NewSchemeBasic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := labelstore.LoadCheckpointBytes(blob, basic); !errors.Is(err, faults.ErrForeignLabel) {
		t.Fatalf("kind-mismatched checkpoint: want ErrForeignLabel, got %v", err)
	}
}

// checkpointHeader is the size of the framing checkpoints and snapshots
// share: magic, CRC-32 and payload length.
const checkpointHeader = 8 + 4 + 8

// framePayload wraps a payload in the checkpoint and snapshot framing under
// the given magic, with a correct CRC and length, so an edited payload
// reaches the payload decoder instead of failing the checksum.
func framePayload(magic string, payload []byte) []byte {
	out := make([]byte, checkpointHeader, checkpointHeader+len(payload))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(out[12:], uint64(len(payload)))
	return append(out, payload...)
}

// checkpointParts is a checkpoint payload split into its sections, so a test
// can edit one section and re-encode the rest unchanged.
type checkpointParts struct {
	head   []byte   // scheme kind and length-prefixed spec JSON
	steps  [][2]int // (instance, production) per step
	labels [][]byte // per item: uvarint bit count, length-prefixed label
	paths  []checkpointPath
}

type checkpointPath struct {
	id  int
	enc []byte // uvarint bit count, length-prefixed path
}

// partsAt splits the state a checkpoint of a fresh session after the first k
// steps would hold into sections.
func partsAt(t *testing.T, scheme *core.Scheme, steps []live.StepRequest, k int) checkpointParts {
	t.Helper()
	spec, err := json.Marshal(scheme.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var p checkpointParts
	if scheme.IsBasic() {
		p.head = []byte{1}
	} else {
		p.head = []byte{0}
	}
	p.head = appendBlock(p.head, spec)
	codec := scheme.Codec()
	err = sessionAt(t, scheme, steps, k).Exclusive(func(r *run.Run, labeler *core.RunLabeler) error {
		for _, s := range r.Steps {
			p.steps = append(p.steps, [2]int{s.Instance, s.Prod})
		}
		for _, item := range r.Items {
			d, ok := labeler.Label(item.ID)
			if !ok {
				return fmt.Errorf("item %d unlabeled", item.ID)
			}
			buf, nbit := codec.Encode(d)
			p.labels = append(p.labels, appendBlock(binary.AppendUvarint(nil, uint64(nbit)), buf))
		}
		paths, err := labeler.FrontierPaths(r)
		if err != nil {
			return err
		}
		for _, id := range r.Frontier() {
			buf, nbit := codec.EncodePath(paths[id])
			p.paths = append(p.paths, checkpointPath{id, appendBlock(binary.AppendUvarint(nil, uint64(nbit)), buf)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func appendBlock(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// encode lays the sections out as the checkpoint payload.
func (p checkpointParts) encode() []byte {
	buf := append([]byte(nil), p.head...)
	buf = binary.AppendUvarint(buf, uint64(len(p.steps)))
	for _, s := range p.steps {
		buf = binary.AppendUvarint(buf, uint64(s[0]))
		buf = binary.AppendUvarint(buf, uint64(s[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.labels)))
	for _, l := range p.labels {
		buf = append(buf, l...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.paths)))
	for _, path := range p.paths {
		buf = binary.AppendUvarint(buf, uint64(path.id))
		buf = append(buf, path.enc...)
	}
	return buf
}

// TestCheckpointRejectsForgedPayloads edits one section of a valid payload
// at a time and re-frames it with a correct CRC, so every case reaches the
// payload decoder; each must fail with ErrCorruptCheckpoint.
func TestCheckpointRejectsForgedPayloads(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	steps := randomSteps(t, scheme, 40, 7)
	k := len(steps) / 2
	valid := partsAt(t, scheme, steps, k)
	if len(valid.steps) == 0 || len(valid.paths) == 0 {
		t.Fatalf("prefix %d has %d steps and %d frontier instances; the cases need both", k, len(valid.steps), len(valid.paths))
	}
	// The sections must lay out exactly what SaveCheckpoint writes, or the
	// edits below would test a format nobody produces.
	if got := framePayload("FVLCKPT\x02", valid.encode()); !bytes.Equal(got, checkpointAt(t, scheme, steps, k)) {
		t.Fatal("re-encoded sections differ from SaveCheckpoint's bytes")
	}
	if _, err := labelstore.LoadCheckpointBytes(framePayload("FVLCKPT\x02", valid.encode()), scheme); err != nil {
		t.Fatalf("re-framed valid payload rejected: %v", err)
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

	for _, tc := range []struct {
		name  string
		magic string
		edit  func(p *checkpointParts)
	}{
		{"step names an unknown instance", "", func(p *checkpointParts) {
			p.steps[len(p.steps)-1][0] = 1 << 20
		}},
		{"step applies the wrong production", "", func(p *checkpointParts) {
			p.steps[0][1] = wrongProd
		}},
		{"instance expanded twice", "", func(p *checkpointParts) {
			p.steps = append(p.steps, p.steps[0])
		}},
		{"one label too many", "", func(p *checkpointParts) {
			p.labels = append(p.labels, p.labels[len(p.labels)-1])
		}},
		{"one label too few", "", func(p *checkpointParts) {
			p.labels = p.labels[:len(p.labels)-1]
		}},
		{"missing frontier path", "", func(p *checkpointParts) {
			p.paths = p.paths[:len(p.paths)-1]
		}},
		{"extra frontier path", "", func(p *checkpointParts) {
			// Instance 0 is the start instance, expanded by the first step.
			p.paths = append(p.paths, checkpointPath{0, p.paths[0].enc})
		}},
		{"retired version-1 magic", "FVLCKPT\x01", func(*checkpointParts) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := valid
			p.steps = append([][2]int(nil), valid.steps...)
			p.labels = append([][]byte(nil), valid.labels...)
			p.paths = append([]checkpointPath(nil), valid.paths...)
			tc.edit(&p)
			magic := tc.magic
			if magic == "" {
				magic = "FVLCKPT\x02"
			}
			_, err := labelstore.LoadCheckpointBytes(framePayload(magic, p.encode()), scheme)
			if !errors.Is(err, faults.ErrCorruptCheckpoint) {
				t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
			}
		})
	}
}
