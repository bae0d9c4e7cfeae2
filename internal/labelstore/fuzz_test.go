package labelstore_test

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/labelstore"
	"repro/internal/live"
	"repro/internal/view"
	"repro/internal/workloads"
)

// FuzzLoad is the corruption target for label snapshots. The fuzz input is
// the payload: the target frames it with FVLSNAP\x02, a correct CRC and the
// length, so mutations reach the specification, the views and relabeling
// instead of bouncing off the checksum. The seeds are snapshots of all
// three variants of the paper example (default and security views), a
// BioAID view, the basic scheme and an empty payload. The contract: no
// panic; allocation at or under allocBudget (1 MiB + 4096 B per input
// byte), even for a few bytes that declare huge port counts or a recursion
// with a long period; every rejection wraps ErrCorruptSnapshot; every
// accepted snapshot answers queries.
func FuzzLoad(f *testing.F) {
	addSnapshot := func(scheme *core.Scheme, labels ...*core.ViewLabel) {
		var buf bytes.Buffer
		if err := labelstore.Save(&buf, scheme, labels); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[checkpointHeader:])
	}
	label := func(scheme *core.Scheme, v *view.View, variant core.Variant) *core.ViewLabel {
		vl, err := scheme.LabelView(v, variant)
		if err != nil {
			f.Fatal(err)
		}
		return vl
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
		addSnapshot(scheme, label(scheme, view.Default(spec), variant), label(scheme, sec, variant))
	}

	bioSpec := workloads.BioAID()
	bioScheme, err := core.NewScheme(bioSpec)
	if err != nil {
		f.Fatal(err)
	}
	bioView, err := workloads.RandomView(bioSpec, workloads.ViewOptions{
		Name: "grey-box", Composites: 6, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		f.Fatal(err)
	}
	addSnapshot(bioScheme, label(bioScheme, bioView, core.VariantQueryEfficient))

	basicSpec := workloads.Figure10Example()
	basicScheme, err := core.NewSchemeBasic(basicSpec)
	if err != nil {
		f.Fatal(err)
	}
	addSnapshot(basicScheme, label(basicScheme, view.Default(basicSpec), core.VariantQueryEfficient))
	addSnapshot(scheme)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		data := framePayload("FVLSNAP\x02", payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := labelstore.LoadBytes(data)
		runtime.ReadMemStats(&after)
		if grew, budget := after.TotalAlloc-before.TotalAlloc, allocBudget(len(data)); grew > budget {
			t.Fatalf("loading %d bytes allocated %d bytes, budget %d", len(data), grew, budget)
		}
		if err != nil {
			if !errors.Is(err, faults.ErrCorruptSnapshot) {
				t.Fatalf("unclassified rejection: %v", err)
			}
			return
		}
		// An accepted snapshot must be servable: every label answers a
		// trivially malformed query (the empty data label) without a panic.
		bad := &core.DataLabel{}
		for _, vl := range snap.Labels {
			_, _ = vl.DependsOn(bad, bad)
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
		data := framePayload("FVLCKPT\x02", payload)
		for _, scheme := range schemes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := labelstore.LoadCheckpointBytes(data, scheme)
			runtime.ReadMemStats(&after)
			if grew, budget := after.TotalAlloc-before.TotalAlloc, allocBudget(len(data)); grew > budget {
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

// allocBudget is the allocation a snapshot load or a checkpoint decode of n
// bytes may make: a fixed base plus a linear share per input byte (for a
// checkpoint, the replayed run and the decoded labels; for a snapshot, the
// relabeled views).
func allocBudget(n int) uint64 {
	return 1<<20 + 4096*uint64(n)
}
