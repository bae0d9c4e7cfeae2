package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/view"
	"repro/internal/workloads"
)

// TestBatchesSharePlanCachesAcrossCalls: the engine's plan-cache share hands
// a worker's warmed cache to the next batch, so consecutive batches — point
// batches under the nil key, set-query batches under their pinned index —
// start warm instead of recomputing closures per call. Observable without
// reaching into core: after a batch completes, the share holds idle caches
// for exactly the key the batch ran under.
func TestBatchesSharePlanCachesAcrossCalls(t *testing.T) {
	vl, queries := fixture(t, core.VariantSpaceEfficient, 64)
	e := New(2)
	if got := e.share.IdleCaches(nil); got != 0 {
		t.Fatalf("fresh engine holds %d idle caches", got)
	}
	for _, r := range e.DependsOnBatch(vl, queries) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	parked := e.share.IdleCaches(nil)
	if parked == 0 {
		t.Fatal("batch workers did not park their plan caches in the share")
	}
	// A second batch must reuse the parked caches, not mint more: the idle
	// count cannot grow past the engine's worker count. The bound is the
	// worker count, not what the first batch parked: a worker that drains
	// the whole batch before the other one acquires parks one cache, which
	// the next batch's two concurrent workers legitimately grow to two. A
	// share that never reused would end at parked+2 > 2 here.
	for _, r := range e.DependsOnBatch(vl, queries) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	parked = e.share.IdleCaches(nil)
	if parked > e.workers {
		t.Fatalf("second batch minted fresh caches: %d idle, want <= %d", parked, e.workers)
	}

	// Set-query batches park under their pinned index, not under nil, and a
	// second batch at the same index reuses what the first one parked.
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	setVL, err := scheme.LabelView(view.Default(spec), core.VariantSpaceEfficient)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := NewServer(scheme, []*core.ViewLabel{setVL}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 80, Rand: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	idx := core.BuildItemIndex(0, labeler.Count(), labeler.Label)
	var exprs []*query.Expr
	for x := 1; x <= idx.Items(); x++ {
		exprs = append(exprs, query.Deps(x), query.RevDeps(x))
	}
	setBatch := func() {
		t.Helper()
		results, err := e.SetQueryBatchContext(context.Background(), cat, setVL.View().Name, idx, exprs)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	setBatch()
	parkedAtIdx := e.share.IdleCaches(idx)
	if parkedAtIdx == 0 {
		t.Fatal("set-query batch workers did not park their plan caches under the pinned index")
	}
	setBatch()
	if got := e.share.IdleCaches(idx); got > e.workers {
		t.Fatalf("second set-query batch minted fresh caches: %d idle, want <= %d", got, e.workers)
	}
	if got := e.share.IdleCaches(nil); got != parked {
		t.Fatalf("set-query batches changed the caches under the nil key: %d idle, want %d", got, parked)
	}
}
