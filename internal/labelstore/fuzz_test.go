package labelstore_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/labelstore"
	"repro/internal/live"
	"repro/internal/view"
	"repro/internal/workloads"
)

// FuzzLoad is the corruption target mirroring boolmat's
// FuzzKernelsMatchNaive: Load must return an error or a valid snapshot on
// arbitrary bytes — never panic, and never attempt an allocation that is
// not backed by the input's own length (every count is budget-checked
// before the corresponding make). The seed corpus is a set of valid
// snapshots across schemes and variants, so mutations explore the deep
// payload structure rather than bouncing off the checksum... which the
// unkeyed corpus entries below exercise too.
func FuzzLoad(f *testing.F) {
	addSnapshot := func(scheme *core.Scheme, labels []*core.ViewLabel) {
		var buf bytes.Buffer
		if err := labelstore.Save(&buf, scheme, labels); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		f.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		f.Fatal(err)
	}
	for _, variant := range allVariants {
		vl, err := scheme.LabelView(view.Default(spec), variant)
		if err != nil {
			f.Fatal(err)
		}
		vls, err := scheme.LabelView(sec, variant)
		if err != nil {
			f.Fatal(err)
		}
		addSnapshot(scheme, []*core.ViewLabel{vl, vls})
	}
	addSnapshot(scheme, nil)

	basicSpec := workloads.Figure10Example()
	basicScheme, err := core.NewSchemeBasic(basicSpec)
	if err != nil {
		f.Fatal(err)
	}
	bvl, err := basicScheme.LabelView(view.Default(basicSpec), core.VariantQueryEfficient)
	if err != nil {
		f.Fatal(err)
	}
	addSnapshot(basicScheme, []*core.ViewLabel{bvl})

	f.Add([]byte{})
	f.Add([]byte("FVLSNAP\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := labelstore.LoadBytes(data)
		if err != nil {
			return
		}
		// An accepted snapshot must be servable: every label answers a
		// trivially malformed query with an error, not a panic.
		bad := &core.DataLabel{}
		for _, vl := range snap.Labels {
			if _, qerr := vl.DependsOn(bad, bad); qerr == nil {
				// The empty label decodes as "no producing and no consuming
				// port", which Visible accepts and case I answers false — both
				// outcomes are fine; the point is reaching here without a panic.
				_ = qerr
			}
		}
	})
}

// FuzzCheckpointDecode is the corruption target for session checkpoints.
// The fuzz input is the payload: the target frames it with the magic, a
// correct CRC and the length, so mutations reach step replay and the label
// and path decoders instead of bouncing off the checksum. Each input is
// loaded against every seed scheme (at most one can match its embedded
// specification). The contract: no panic; no allocation beyond what the
// input's length funds; every rejection wraps ErrCorruptCheckpoint or
// ErrForeignLabel; every accepted state restores a live session with a
// label for every item of the replayed run.
func FuzzCheckpointDecode(f *testing.F) {
	var schemes []*core.Scheme
	addSeeds := func(scheme *core.Scheme, target int, rs int64, prefixes ...int) {
		schemes = append(schemes, scheme)
		steps := randomSteps(f, scheme, target, rs)
		for _, k := range prefixes {
			if k > len(steps) {
				k = len(steps)
			}
			f.Add(checkpointAt(f, scheme, steps, k)[checkpointHeader:])
		}
	}
	paper, err := core.NewScheme(workloads.PaperExample())
	if err != nil {
		f.Fatal(err)
	}
	// A prefix past the end of the run seeds the completed run.
	addSeeds(paper, 40, 7, 0, 1, 5, 11, 1<<20)
	bio, err := core.NewScheme(workloads.BioAID())
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(bio, 200, 13, 12)
	basic, err := core.NewSchemeBasic(workloads.Figure10Example())
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(basic, 30, 5, 4)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		data := frameCheckpoint("FVLCKPT\x02", payload)
		for _, scheme := range schemes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := labelstore.LoadCheckpointBytes(data, scheme)
			runtime.ReadMemStats(&after)
			if grew, budget := after.TotalAlloc-before.TotalAlloc, checkpointAllocBudget(len(data)); grew > budget {
				t.Fatalf("decoding %d bytes allocated %d bytes, budget %d", len(data), grew, budget)
			}
			if err != nil {
				if !errors.Is(err, faults.ErrCorruptCheckpoint) && !errors.Is(err, faults.ErrForeignLabel) {
					t.Fatalf("unclassified rejection: %v", err)
				}
				continue
			}
			sess, err := live.Restore(scheme, st.Run, st.Labeler)
			if err != nil {
				t.Fatalf("accepted checkpoint does not restore: %v", err)
			}
			if got, want := sess.Items(), len(st.Run.Items); got != want {
				t.Fatalf("restored session labels %d items, run has %d", got, want)
			}
		}
	})
}

// checkpointAllocBudget is the allocation a checkpoint decode of n bytes may
// make: a fixed base for marshaling the scheme's specification and the empty
// run, plus a linear share per input byte for the replayed structure and the
// decoded labels.
func checkpointAllocBudget(n int) uint64 {
	return 1<<20 + 4096*uint64(n)
}
