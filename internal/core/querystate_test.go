package core

// Internal tests for the per-query closure cache invariant: closures computed
// on the graph-search path (VariantSpaceEfficient) are scoped to one query.
// Reusing them across queries would make the space-efficient variant cheat in
// the Figure 20 experiment, which charges it the full graph-search cost per
// query. Since the query-context refactor the cache lives in queryCtx, not in
// the view label, and queryCtx.begin drops it at the start of every query.

import (
	"math/rand"
	"testing"

	"repro/internal/safety"
	"repro/internal/view"
	"repro/internal/workloads"
)

// spaceEfficientQuery returns a space-efficient view label together with a
// label pair whose query is answered via the closure memo (i.e. it populates
// the context's closure cache).
func spaceEfficientQuery(t *testing.T) (*ViewLabel, DataLabel, DataLabel) {
	t.Helper()
	spec := workloads.PaperExample()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatalf("building scheme: %v", err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatalf("deriving run: %v", err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatalf("labeling run: %v", err)
	}
	vl, err := scheme.LabelView(view.Default(spec), VariantSpaceEfficient)
	if err != nil {
		t.Fatalf("labeling view: %v", err)
	}
	qc := new(queryCtx)
	for _, d1 := range r.Items {
		for _, d2 := range r.Items {
			l1, _ := labeler.Label(d1.ID)
			l2, _ := labeler.Label(d2.ID)
			if _, err := vl.dependsOn(qc, l1, l2); err != nil {
				t.Fatalf("DependsOn: %v", err)
			}
			if len(qc.closures) > 0 {
				return vl, l1, l2
			}
		}
	}
	t.Fatalf("no query populated the closure cache")
	return nil, DataLabel{}, DataLabel{}
}

func TestSpaceEfficientQueriesDoNotReuseClosures(t *testing.T) {
	vl, l1, l2 := spaceEfficientQuery(t)

	// Run the query once, snapshot the closures it computed, then ask again
	// with the same (warm) context: the second query must recompute every
	// closure from scratch, because begin drops the cache entries.
	qc := new(queryCtx)
	if _, err := vl.dependsOn(qc, l1, l2); err != nil {
		t.Fatalf("first DependsOn: %v", err)
	}
	if len(qc.closures) == 0 {
		t.Fatalf("first query did not populate the closure cache")
	}
	first := make(map[int]*safety.Closure, len(qc.closures))
	for k, cl := range qc.closures {
		first[k] = cl
	}
	if _, err := vl.dependsOn(qc, l1, l2); err != nil {
		t.Fatalf("second DependsOn: %v", err)
	}
	if len(qc.closures) == 0 {
		t.Fatalf("second query did not populate the closure cache")
	}
	for k, cl := range qc.closures {
		if prev, ok := first[k]; ok && prev == cl {
			t.Fatalf("closure for production %d survived from the previous query", k)
		}
	}
}

func TestQueryContextBeginDropsClosuresAndRewindsScratch(t *testing.T) {
	qc := &queryCtx{closures: map[int]*safety.Closure{1: nil, 2: nil}}
	qc.take()
	qc.take()
	qc.begin()
	if len(qc.closures) != 0 {
		t.Fatalf("begin kept %d closure cache entries", len(qc.closures))
	}
	if qc.used != 0 {
		t.Fatalf("begin left the scratch arena at %d used slots", qc.used)
	}
}

func TestMaterializedVariantQueriesNeverTouchClosures(t *testing.T) {
	// The materialized variants answer every query from the label's matrices;
	// their hot path must be write-free, which shows up here as a closure
	// cache that stays empty no matter how many queries run.
	spec := workloads.PaperExample()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatalf("building scheme: %v", err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatalf("deriving run: %v", err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatalf("labeling run: %v", err)
	}
	for _, variant := range []Variant{VariantDefault, VariantQueryEfficient} {
		vl, err := scheme.LabelView(view.Default(spec), variant)
		if err != nil {
			t.Fatalf("labeling view (%v): %v", variant, err)
		}
		qc := new(queryCtx)
		for _, d1 := range r.Items {
			for _, d2 := range r.Items {
				l1, _ := labeler.Label(d1.ID)
				l2, _ := labeler.Label(d2.ID)
				if _, err := vl.dependsOn(qc, l1, l2); err != nil {
					t.Fatalf("DependsOn (%v): %v", variant, err)
				}
				if len(qc.closures) != 0 {
					t.Fatalf("variant %v wrote %d closures into the query context", variant, len(qc.closures))
				}
			}
		}
	}
}

// TestPlanFreeRecursiveQueriesRebuildChainsEveryTime extends the invariant to
// recursion chains and edge matrices: a plan caches the chain of a recursive
// edge and every I, O and Z matrix it touches, but a bare session must
// rebuild them on every query. Asked twice, a recursive-edge query allocates
// the same both times and leaves no chain and no edge matrix anywhere, so
// Figure 20's per-query charge cannot silently drop.
func TestPlanFreeRecursiveQueriesRebuildChainsEveryTime(t *testing.T) {
	spec := workloads.BioAID()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 400, Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), VariantSpaceEfficient)
	if err != nil {
		t.Fatal(err)
	}

	// Case III of Algorithm 2: an initial input against the item consumed
	// deepest inside a recursion, so the query multiplies a chain of cycle
	// matrices several turns long.
	var d1, d2 DataLabel
	depth := 0
	for id := 1; id <= labeler.Count(); id++ {
		d, _ := labeler.Label(id)
		if !d.Out.Present() && !d1.In.Present() {
			d1 = d
		}
		if !d.In.Present() {
			continue
		}
		for _, e := range d.In.Path {
			if e.Recursive() && e.I() > depth {
				d2, depth = d, e.I()
			}
		}
	}
	if !d1.In.Present() || depth < 3 {
		t.Fatalf("fixture has no initial input or no recursion deeper than %d", depth)
	}
	query := func(s *QuerySession) func() {
		return func() {
			if _, err := s.DependsOn(vl, d1, d2); err != nil {
				t.Fatal(err)
			}
		}
	}

	bare := NewQuerySession()
	defer bare.Close()
	first := testing.AllocsPerRun(1, query(bare))
	second := testing.AllocsPerRun(1, query(bare))
	if first != second {
		t.Fatalf("a bare recursive-edge query allocated %.0f, then %.0f: state survived between queries", first, second)
	}
	if bare.qc.plan != nil || vl.chains[0] != nil || vl.chains[1] != nil {
		t.Fatal("a bare query left a recursion chain behind")
	}
	if vl.edges != nil {
		t.Fatal("a bare query left an edge matrix in the view label")
	}

	// The same query through a plan builds the chain once and then reuses
	// it — proof that the query above really resolves a recursion chain.
	planned := NewQuerySession()
	defer planned.Close()
	pc := planned.EnsurePlan(nil)
	warm := testing.AllocsPerRun(1, query(planned))
	cached := planEntries(pc)
	if countEntries(cached, "chain") == 0 {
		t.Fatal("the recursive-edge query built no recursion chain into the plan")
	}
	assertEdgeMatricesCached(t, cached)
	if warm >= first {
		t.Fatalf("plan-attached query allocates %.0f, bare %.0f: the plan saved nothing", warm, first)
	}
}
