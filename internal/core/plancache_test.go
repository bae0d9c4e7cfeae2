package core

// Tests for the plan-scoped cache: the deliberate, opt-in inverse of the
// query-state-honesty invariant checked by querystate_test.go. A bare context
// drops closures and rebuilds edge matrices every query; a context with a
// plan attached keeps every I, O and Z matrix of the productions it touched —
// and the set-query scans additionally keep chain products and visibility
// bits — for as long as the plan lives.

import (
	"math/rand"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// planEntry locates one object a plan caches: an edge matrix (kind "I" or
// "O" at production k, node i; kind "Z" at production k, nodes i < j), a
// recursion chain (cycle s, offset t, side) or a chain product (node, side,
// from) of one label.
type planEntry struct {
	vl      *ViewLabel
	kind    string
	a, b, c int
}

// planEntries snapshots every edge matrix, recursion chain and chain product
// a plan holds, each mapped to the cached object (a chain product to its
// offset in the label's words), so probes can check both that nothing new
// was cached and that nothing cached was recomputed.
func planEntries(pc *PlanCache) map[planEntry]any {
	out := map[planEntry]any{}
	for vl, pl := range pc.labels {
		for k, pe := range pl.edges {
			if pe == nil {
				continue
			}
			for i := 1; i <= pe.n; i++ {
				out[planEntry{vl, "I", k, i, 0}] = pe.in[i-1]
				out[planEntry{vl, "O", k, i, 0}] = pe.out[i-1]
				for j := i + 1; j <= pe.n; j++ {
					out[planEntry{vl, "Z", k, i, j}] = pe.at(kindZ, i, j)
				}
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
		ps := &pl.prods
		for node, run := range ps.runs {
			if run == 0 {
				continue
			}
			n := len(pc.idx.path(int32(node))) + 1
			for side := range 2 {
				for from := range n {
					if at := ps.slots[int(run)-1+side*n+from]; at != 0 {
						out[planEntry{vl, "prod", node, side, from}] = at
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

// assertEdgeMatricesCached fails unless the plan holds I, O and Z matrices.
func assertEdgeMatricesCached(t *testing.T, entries map[planEntry]any) {
	t.Helper()
	for _, kind := range []string{"I", "O", "Z"} {
		if countEntries(entries, kind) == 0 {
			t.Fatalf("plan cache holds no %s matrix", kind)
		}
	}
}

// visibilityBits counts the node visibility bits a plan has computed.
func visibilityBits(pc *PlanCache) int {
	n := 0
	for _, pl := range pc.labels {
		for _, v := range pl.vis {
			if v != visUnknown {
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

func TestPlanAttachedContextReusesEdgeMatricesAcrossQueries(t *testing.T) {
	vl, l1, l2 := spaceEfficientQuery(t)
	s := NewQuerySession()
	defer s.Close()
	pc := s.EnsurePlan(nil)
	if _, err := s.DependsOn(vl, l1, l2); err != nil {
		t.Fatalf("first query: %v", err)
	}
	captured := planEntries(pc)
	assertEdgeMatricesCached(t, captured)
	if _, err := s.DependsOn(vl, l1, l2); err != nil {
		t.Fatalf("second query: %v", err)
	}
	again := planEntries(pc)
	assertNothingRecomputed(t, captured, again)
	if len(again) != len(captured) {
		t.Fatalf("second query grew the plan from %d to %d entries", len(captured), len(again))
	}
	if len(s.qc.closures) != 0 {
		t.Fatal("per-query memo must stay empty while a plan serves edge matrices")
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
	t.Logf("space-efficient point query: %.0f allocs/op honest, %.0f allocs/op plan-attached", honestAllocs, planAllocs)
	if planAllocs != 0 {
		t.Fatalf("warmed plan-attached query allocates %.0f/op, want 0", planAllocs)
	}
	if honestAllocs == 0 {
		t.Fatal("honest query allocates nothing: it no longer rebuilds its edge matrices")
	}
}

// TestPlanAttachedDepsRowAllocatesOnlyTheAnswer checks the set scans' steady
// state: once every target has been scanned, a DepsRow or RevDepsRow call
// allocates its answer row and nothing else, however many groups the index
// has, on the default view and on a grey-box view that hides most of them.
func TestPlanAttachedDepsRowAllocatesOnlyTheAnswer(t *testing.T) {
	spec := workloads.BioAID()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	grey, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "grey", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	scans := map[string]func(*QuerySession, *ViewLabel, *ItemIndex, int) (*boolmat.Matrix, error){
		"deps": (*QuerySession).DepsRow, "revdeps": (*QuerySession).RevDepsRow,
	}
	for _, v := range []*view.View{view.Default(spec), grey} {
		vl, err := scheme.LabelView(v, VariantSpaceEfficient)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{60, 600} {
			r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(9))})
			if err != nil {
				t.Fatal(err)
			}
			labeler, err := scheme.LabelRun(r)
			if err != nil {
				t.Fatal(err)
			}
			idx := BuildItemIndex(0, labeler.Count(), labeler.Label)
			answer := testing.AllocsPerRun(20, func() { boolmat.New(1, idx.Items()+1) })
			var targets []int
			for x := 1; x <= idx.Items(); x++ {
				if lx, _ := labeler.Label(x); vl.Visible(lx) {
					targets = append(targets, x)
				}
			}
			for name, scan := range scans {
				s := NewQuerySession()
				s.EnsurePlan(idx)
				for _, x := range targets {
					if _, err := scan(s, vl, idx, x); err != nil {
						t.Fatalf("%s %s(%d): %v", v.Name, name, x, err)
					}
				}
				for _, x := range targets {
					got := testing.AllocsPerRun(5, func() {
						if _, err := scan(s, vl, idx, x); err != nil {
							t.Fatal(err)
						}
					})
					if got != answer {
						t.Fatalf("%s, %d items, %d/%d groups: warmed %s(%d) allocates %.0f/op, want %.0f (the answer row)",
							v.Name, idx.Items(), len(idx.src.groups), len(idx.dst.groups), name, x, got, answer)
					}
				}
				t.Logf("%s, %d items, %d visible targets: warmed %s allocates %.0f/op", v.Name, idx.Items(), len(targets), name, answer)
				s.Close()
			}
		}
	}
}

func TestEnsurePlanKeepsAndReplacesByIndex(t *testing.T) {
	s := NewQuerySession()
	defer s.Close()
	pc := s.EnsurePlan(nil)
	if s.EnsurePlan(nil) != pc {
		t.Fatal("EnsurePlan(nil) must keep the attached plan")
	}
	idx := BuildItemIndex(3, 0, func(int) (DataLabel, bool) { return DataLabel{}, false })
	pc2 := s.EnsurePlan(idx)
	if pc2 == pc {
		t.Fatal("EnsurePlan(idx) must replace an index-free plan")
	}
	if s.EnsurePlan(idx) != pc2 {
		t.Fatal("EnsurePlan with the same index must keep the plan")
	}
	other := BuildItemIndex(3, 0, func(int) (DataLabel, bool) { return DataLabel{}, false })
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

// TestPlanColdBatchAllocatesPerBatchNotPerProduct runs a set batch of 4
// Deps and 4 RevDeps scans on a fresh plan per run: its allocation count
// must not grow with the suffix products the plan caches, which live as
// words in one arena per label rather than as matrices of their own. The
// paper example's deep recursion makes its batch cache thousands of
// products; the mixed-fvld batch of BenchmarkPlanColdBatch reads thousands
// too, but nearly all are identities and single edge matrices, which the
// plan does not copy.
func TestPlanColdBatchAllocatesPerBatchNotPerProduct(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  *workflow.Specification
		items int
		prods int // the fewest products the batch must cache
	}{
		{"paper", workloads.PaperExample(), 4000, 1000},
		{"synthetic", workloads.Synthetic(workloads.DefaultSyntheticParams()), 10000, 0},
	} {
		f := newColdBatchFixture(t, c.spec, c.items)
		s := NewQuerySession()
		f.batch(t, s)
		prods := countEntries(planEntries(s.qc.plan), "prod")
		allocs := testing.AllocsPerRun(5, func() { f.batch(t, s) })
		s.Close()
		t.Logf("%s, %d items: a cold batch caches %d products in %.0f allocations", c.name, f.idx.Items(), prods, allocs)
		if prods < c.prods {
			t.Fatalf("%s: a cold batch caches only %d products: the fixture no longer exercises the cache", c.name, prods)
		}
		if allocs > max(float64(prods)/10, 64) {
			t.Fatalf("%s: a cold batch allocates %.0f times for %d cached products", c.name, allocs, prods)
		}
	}
}
