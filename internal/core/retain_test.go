package core_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/workloads"
)

// probeRun is the probe run of the label-memory measurements: a complete
// BioAID run grown to 20,000 items from seed 1.
func probeRun(tb testing.TB) (*core.Scheme, *run.Run) {
	tb.Helper()
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 20000, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		tb.Fatal(err)
	}
	return scheme, r
}

// retained returns the heap bytes build's result keeps alive: live heap
// after two collections, with the result held, less the same before build.
func retained(tb testing.TB, build func() (any, error)) int64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := build()
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestLabelMemoryRetained bounds what the probe run's labels keep alive: a
// data label is two (instance, port) references into a table of packed
// instance paths, so the labeler keeps at most 64 bytes per item, and the
// item index over its labels, which groups items by owner instance and
// copies no label, at most 96 more.
func TestLabelMemoryRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts heap measurements")
	}
	scheme, r := probeRun(t)
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	n := labeler.Count()
	lab := retained(t, func() (any, error) { return scheme.LabelRun(r) })
	idx := retained(t, func() (any, error) { return core.BuildItemIndex(0, n, labeler.Label), nil })
	t.Logf("probe run of %d items over %d instances: labeler retains %d bytes (%.1f B/item), item index %d (%.1f B/item)",
		n, len(r.Instances), lab, float64(lab)/float64(n), idx, float64(idx)/float64(n))
	if perItem := float64(lab) / float64(n); perItem > 64 {
		t.Errorf("labeler retains %.1f B/item, want at most 64", perItem)
	}
	if perItem := float64(idx) / float64(n); perItem > 96 {
		t.Errorf("item index retains %.1f B/item, want at most 96", perItem)
	}
}
