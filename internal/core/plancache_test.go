package core

// Tests for the plan-scoped cache: the deliberate, opt-in inverse of the
// query-state-honesty invariant checked by querystate_test.go. A bare context
// drops closures every query; a context with a plan attached keeps them — and
// the set-query scans additionally keep chain products and visibility bits —
// for as long as the plan lives.

import (
	"math/rand"
	"testing"

	"repro/internal/view"
	"repro/internal/workloads"
)

// planEntry locates one object a plan caches: a closure (production k), a
// recursion chain (cycle s, offset t, side) or a chain product (node, side,
// from) of one label.
type planEntry struct {
	vl      *ViewLabel
	kind    string
	a, b, c int
}

// planEntries snapshots every closure, recursion chain and chain product a
// plan holds, each mapped to the cached object, so probes can check both
// that nothing new was cached and that nothing cached was recomputed.
func planEntries(pc *PlanCache) map[planEntry]any {
	out := map[planEntry]any{}
	for vl, pl := range pc.labels {
		for k, cl := range pl.closures {
			if cl != nil {
				out[planEntry{vl, "closure", k, 0, 0}] = cl
			}
		}
		for side, cycles := range pl.chains {
			for s, row := range cycles {
				for t, rc := range row {
					if rc != nil {
						out[planEntry{vl, "chain", s + 1, t + 1, side}] = rc
					}
				}
			}
		}
		for node, pn := range pl.nodes {
			for side, slots := range pn.prods {
				for from, m := range slots {
					if m != nil {
						out[planEntry{vl, "prod", node, side, from}] = m
					}
				}
			}
		}
	}
	return out
}

// countEntries counts the entries of one kind.
func countEntries(entries map[planEntry]any, kind string) int {
	n := 0
	for e := range entries {
		if e.kind == kind {
			n++
		}
	}
	return n
}

// visibilityBits counts the node visibility bits a plan has computed.
func visibilityBits(pc *PlanCache) int {
	n := 0
	for _, pl := range pc.labels {
		for _, pn := range pl.nodes {
			if pn.visible != visUnknown {
				n++
			}
		}
	}
	return n
}

// assertNothingRecomputed fails unless every entry of before is still
// cached, as the same object, in after.
func assertNothingRecomputed(t *testing.T, before, after map[planEntry]any) {
	t.Helper()
	for e, prev := range before {
		if cur, ok := after[e]; !ok || cur != prev {
			t.Fatalf("cached %s %v was recomputed or dropped", e.kind, e)
		}
	}
}

func TestPlanAttachedContextReusesClosuresAcrossQueries(t *testing.T) {
	vl, l1, l2 := spaceEfficientQuery(t)
	s := NewQuerySession()
	defer s.Close()
	pc := s.EnsurePlan(nil)
	if _, err := s.DependsOn(vl, l1, l2); err != nil {
		t.Fatalf("first query: %v", err)
	}
	captured := planEntries(pc)
	if countEntries(captured, "closure") == 0 {
		t.Fatal("plan cache did not capture the first query's closures")
	}
	if _, err := s.DependsOn(vl, l1, l2); err != nil {
		t.Fatalf("second query: %v", err)
	}
	assertNothingRecomputed(t, captured, planEntries(pc))
	if len(s.qc.closures) != 0 {
		t.Fatal("per-query memo must stay empty while a plan serves closures")
	}
}

func TestPlanAttachedPointQueriesAllocateLessThanHonestOnes(t *testing.T) {
	vl, l1, l2 := spaceEfficientQuery(t)
	s := NewQuerySession()
	defer s.Close()
	s.EnsurePlan(nil)
	// Warm the plan, then measure steady state.
	if _, err := s.DependsOn(vl, l1, l2); err != nil {
		t.Fatal(err)
	}
	planAllocs := testing.AllocsPerRun(200, func() {
		if _, err := s.DependsOn(vl, l1, l2); err != nil {
			t.Fatal(err)
		}
	})
	honest := NewQuerySession()
	defer honest.Close()
	if _, err := honest.DependsOn(vl, l1, l2); err != nil {
		t.Fatal(err)
	}
	honestAllocs := testing.AllocsPerRun(200, func() {
		if _, err := honest.DependsOn(vl, l1, l2); err != nil {
			t.Fatal(err)
		}
	})
	if planAllocs >= honestAllocs {
		t.Fatalf("plan-attached query allocates %.0f/op, honest query %.0f/op — the plan cache saved nothing",
			planAllocs, honestAllocs)
	}
	t.Logf("space-efficient point query: %.0f allocs/op honest, %.0f allocs/op plan-attached", honestAllocs, planAllocs)
}

func TestEnsurePlanKeepsAndReplacesByIndex(t *testing.T) {
	s := NewQuerySession()
	defer s.Close()
	pc := s.EnsurePlan(nil)
	if s.EnsurePlan(nil) != pc {
		t.Fatal("EnsurePlan(nil) must keep the attached plan")
	}
	idx := BuildItemIndex(3, 0, func(int) (*DataLabel, bool) { return nil, false })
	pc2 := s.EnsurePlan(idx)
	if pc2 == pc {
		t.Fatal("EnsurePlan(idx) must replace an index-free plan")
	}
	if s.EnsurePlan(idx) != pc2 {
		t.Fatal("EnsurePlan with the same index must keep the plan")
	}
	other := BuildItemIndex(3, 0, func(int) (*DataLabel, bool) { return nil, false })
	if s.EnsurePlan(other) == pc2 {
		t.Fatal("EnsurePlan with a different index must mint a fresh plan")
	}
}

func TestSetScansCacheChainProductsAcrossQueries(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(21))})
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
	idx := BuildItemIndex(0, labeler.Count(), labeler.Label)
	s := NewQuerySession()
	defer s.Close()
	pc := s.EnsurePlan(idx)
	for x := 1; x <= idx.Items(); x++ {
		if _, err := s.DepsRow(vl, idx, x); err != nil {
			t.Fatalf("depsRow(%d): %v", x, err)
		}
	}
	first := planEntries(pc)
	prods := countEntries(first, "prod")
	if prods == 0 {
		t.Fatal("scanning every item cached no chain products")
	}
	for x := 1; x <= idx.Items(); x++ {
		if _, err := s.DepsRow(vl, idx, x); err != nil {
			t.Fatalf("second depsRow(%d): %v", x, err)
		}
	}
	second := planEntries(pc)
	if got := countEntries(second, "prod"); got != prods {
		t.Fatalf("second scan grew the product cache from %d to %d entries", prods, got)
	}
	assertNothingRecomputed(t, first, second)
	// The visibility row is computed once per label and shared afterwards.
	row := s.VisibleRow(vl, idx)
	if s.VisibleRow(vl, idx) != row {
		t.Fatal("visibleRow must return the cached row on the second call")
	}
}
