package core

// Tests for the epoch-keyed plan-cache share (ROADMAP: "next is sharing it
// epoch-keyed across sessions"): a cache released by one query session is
// handed — warm — to the next session at the same pinned item index, while
// sessions at a different index (a different epoch or run) get a fresh one.

import (
	"math/rand"
	"testing"

	"repro/internal/view"
	"repro/internal/workloads"
)

// sharedScanFixture labels a paper-workload run and returns a view label
// plus the item index of its completed prefix.
func sharedScanFixture(t *testing.T) (*ViewLabel, *RunLabeler, *ItemIndex) {
	t.Helper()
	spec := workloads.PaperExample()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(33))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	return vl, labeler, BuildItemIndex(0, labeler.Count(), labeler.Label)
}

// TestPlanShareHitsAcrossSessionsAtSameEpoch is the satellite lock of PR 9:
// two query sessions at the same epoch (the same pinned ItemIndex) share one
// plan cache through the PlanShare — the second session starts with every
// recursion chain, chain product and visibility bit the first one computed,
// and recomputes none of them.
func TestPlanShareHitsAcrossSessionsAtSameEpoch(t *testing.T) {
	vl, _, idx := sharedScanFixture(t)
	var share PlanShare

	s1 := NewQuerySession()
	pc := share.Acquire(idx)
	s1.AttachPlan(pc)
	for x := 1; x <= idx.Items(); x++ {
		if _, err := s1.DepsRow(vl, idx, x); err != nil {
			t.Fatalf("session 1 DepsRow(%d): %v", x, err)
		}
	}
	warm := planEntries(pc)
	prods, chains, bits := countEntries(warm, "prod"), countEntries(warm, "chain"), visibilityBits(pc)
	if prods == 0 || chains == 0 || bits == 0 {
		t.Fatalf("session 1 left the cache cold: %d products, %d recursion chains, %d visibility bits", prods, chains, bits)
	}
	share.Release(s1.DetachPlan())
	s1.Close()

	// The second session at the same epoch must be handed the same cache —
	// a cache hit, observable as pointer identity — and reuse everything in
	// it.
	s2 := NewQuerySession()
	defer s2.Close()
	pc2 := share.Acquire(idx)
	if pc2 != pc {
		t.Fatal("second session at the same index did not get the released cache back")
	}
	s2.AttachPlan(pc2)
	for x := 1; x <= idx.Items(); x++ {
		if _, err := s2.DepsRow(vl, idx, x); err != nil {
			t.Fatalf("session 2 DepsRow(%d): %v", x, err)
		}
	}
	after := planEntries(pc2)
	if len(after) != len(warm) || visibilityBits(pc2) != bits {
		t.Fatalf("warm session grew the cache: %d -> %d entries, %d -> %d visibility bits",
			len(warm), len(after), bits, visibilityBits(pc2))
	}
	assertNothingRecomputed(t, warm, after)
	share.Release(s2.DetachPlan())

	// A different index — another epoch, another run — must mint a fresh
	// cache: its node IDs would be meaningless against the shared one.
	other := BuildItemIndex(7, 0, func(int) (DataLabel, bool) { return DataLabel{}, false })
	if share.Acquire(other) == pc {
		t.Fatal("a session at a different index was handed the other epoch's cache")
	}
}

// TestPlanShareOwnershipIsExclusive: while a cache is out, a concurrent
// acquire at the same index gets its own cache — the share never aliases a
// live cache into two sessions.
func TestPlanShareOwnershipIsExclusive(t *testing.T) {
	idx := BuildItemIndex(1, 0, func(int) (DataLabel, bool) { return DataLabel{}, false })
	var share PlanShare
	a := share.Acquire(idx)
	b := share.Acquire(idx)
	if a == b {
		t.Fatal("two outstanding acquires share one cache")
	}
	share.Release(a)
	share.Release(b)
	if got := share.IdleCaches(idx); got != 2 {
		t.Fatalf("idle caches = %d, want 2", got)
	}
	if c := share.Acquire(idx); c != a && c != b {
		t.Fatal("acquire after release minted a fresh cache instead of reusing an idle one")
	}
}

// TestPlanShareEvictsStaleEpochs: the share tracks a bounded number of
// distinct indexes; producing past the window forgets the oldest epoch's
// caches, and late releases against a forgotten epoch are dropped rather
// than resurrected.
func TestPlanShareEvictsStaleEpochs(t *testing.T) {
	var share PlanShare
	mk := func(epoch uint64) *ItemIndex {
		return BuildItemIndex(epoch, 0, func(int) (DataLabel, bool) { return DataLabel{}, false })
	}
	first := mk(1)
	firstPC := share.Acquire(first)
	share.Release(firstPC)
	if share.IdleCaches(first) != 1 {
		t.Fatal("first epoch's cache was not retained")
	}
	var last *ItemIndex
	for e := uint64(2); e <= uint64(maxShareIndexes)+1; e++ {
		last = mk(e)
		share.Release(share.Acquire(last))
	}
	if share.IdleCaches(first) != 0 {
		t.Fatalf("oldest epoch survived %d newer ones (window is %d)", maxShareIndexes, maxShareIndexes)
	}
	if share.IdleCaches(last) != 1 {
		t.Fatal("newest epoch's cache was not retained")
	}
	// A cache that was out during the eviction must not re-enter the share.
	stale := share.Acquire(first) // re-admits first; evicts the then-oldest
	held := share.Acquire(mk(100))
	for e := uint64(101); e < 101+uint64(maxShareIndexes); e++ {
		share.Release(share.Acquire(mk(e)))
	}
	share.Release(held) // its index was evicted while it was out
	if share.IdleCaches(held.Index()) != 0 {
		t.Fatal("a late release resurrected an evicted epoch")
	}
	share.Release(stale)
}
