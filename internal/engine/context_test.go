package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/query"
	"repro/internal/workloads"
)

// countingCtx is a context whose Err starts returning context.Canceled after
// the first `allow` calls. It makes the claim-block cancellation behavior of
// the engine deterministic: each nil answer admits exactly one claim (the
// entry check plus one block per worker check), so the number of drained
// blocks is fixed regardless of scheduling.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	allow int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.allow {
		return context.Canceled
	}
	return nil
}

// entryPoint is one of the five worker-pool entry points of the package —
// ForEach and the label, item, index and set-query batches — driven over n
// units of work whose answers are all known to be true, so an answered unit
// is distinguishable from an untouched one. grain is the claim-block size
// of a run over blocks*grain units on one or two workers, blocks >= 2.
type entryPoint struct {
	name  string
	grain int
	// results: the entry point returns a result slice, which is nil when
	// the context is canceled before the start.
	results bool
	run     func(ctx context.Context, workers, n int) (answered []bool, err error)
}

// entryPoints builds the five entry points over one labeled BioAID run and
// one item pair of it with a true answer.
func entryPoints(tb testing.TB) []entryPoint {
	tb.Helper()
	vl, labeler, _ := itemsFixture(tb, workloads.BioAID(), 0, core.VariantQueryEfficient)
	from, to := truePair(tb, vl, labeler)
	d1, _ := labeler.Label(from)
	d2, _ := labeler.Label(to)
	idx := core.BuildItemIndex(0, labeler.Count(), labeler.Label)
	cat, err := NewServer(schemeOf(tb, vl), []*core.ViewLabel{vl}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	points := func(results []Result, err error) ([]bool, error) {
		if results == nil {
			return nil, err
		}
		answered := make([]bool, len(results))
		for i, r := range results {
			answered[i] = r.Err == nil && r.DependsOn
		}
		return answered, err
	}
	items := func(n int) []ItemQuery {
		queries := make([]ItemQuery, n)
		for i := range queries {
			queries[i] = ItemQuery{From: from, To: to}
		}
		return queries
	}
	return []entryPoint{
		{name: "ForEach", grain: 1, run: func(ctx context.Context, workers, n int) ([]bool, error) {
			ran := make([]bool, n)
			err := ForEach(ctx, workers, n, func(i int) error {
				ran[i] = true
				return nil
			})
			return ran, err
		}},
		{name: "label", grain: maxGrain, results: true, run: func(ctx context.Context, workers, n int) ([]bool, error) {
			queries := make([]Query, n)
			for i := range queries {
				queries[i] = Query{D1: d1, D2: d2}
			}
			return points(New(workers).DependsOnBatchContext(ctx, vl, queries))
		}},
		{name: "items", grain: maxGrain, results: true, run: func(ctx context.Context, workers, n int) ([]bool, error) {
			return points(New(workers).DependsOnItemsBatchContext(ctx, vl, labeler, items(n)))
		}},
		{name: "index", grain: maxGrain, results: true, run: func(ctx context.Context, workers, n int) ([]bool, error) {
			return points(New(workers).DependsOnIndexBatchContext(ctx, vl, idx, items(n)))
		}},
		{name: "set", grain: maxGrain, results: true, run: func(ctx context.Context, workers, n int) ([]bool, error) {
			exprs := make([]*query.Expr, n)
			for i := range exprs {
				exprs[i] = query.Deps(to)
			}
			results, err := New(workers).SetQueryBatchContext(ctx, cat, vl.View().Name, idx, exprs)
			if results == nil {
				return nil, err
			}
			answered := make([]bool, n)
			for i, r := range results {
				answered[i] = r.Err == nil && r.Value != nil
			}
			return answered, err
		}},
	}
}

// truePair finds two items of the run such that the second depends on the
// first in the view.
func truePair(tb testing.TB, vl *core.ViewLabel, labeler *core.RunLabeler) (from, to int) {
	tb.Helper()
	n := labeler.Count()
	for from := 1; from <= n; from++ {
		for to := from + 1; to <= min(from+64, n); to++ {
			d1, _ := labeler.Label(from)
			d2, _ := labeler.Label(to)
			if ok, err := vl.DependsOn(d1, d2); err == nil && ok {
				return from, to
			}
		}
	}
	tb.Fatal("fixture produced no item pair with a true answer")
	return 0, 0
}

func TestBatchPreCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ep := range entryPoints(t) {
		t.Run(ep.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				answered, err := ep.run(ctx, workers, 64)
				if !errors.Is(err, faults.ErrCanceled) {
					t.Fatalf("%d workers: got err %v, want ErrCanceled", workers, err)
				}
				if ep.results && answered != nil {
					t.Fatalf("%d workers: got %d results, want nil", workers, len(answered))
				}
				for i, ok := range answered {
					if ok {
						t.Fatalf("%d workers: unit %d ran under a context canceled before the start", workers, i)
					}
				}
			}
		})
	}
}

// TestBatchCancellationIsClaimBlockGranular pins the core contract of every
// entry point: a cancellation observed mid-run stops workers from claiming
// further blocks, while already-claimed blocks finish. The counting context
// admits the entry check plus exactly two claim checks, so exactly two
// blocks are answered in full and the other two are untouched.
func TestBatchCancellationIsClaimBlockGranular(t *testing.T) {
	const blocks = 4
	for _, ep := range entryPoints(t) {
		t.Run(ep.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				ctx := &countingCtx{Context: context.Background(), allow: 3}
				answered, err := ep.run(ctx, workers, blocks*ep.grain)
				if !errors.Is(err, faults.ErrCanceled) {
					t.Fatalf("%d workers: got err %v, want ErrCanceled", workers, err)
				}
				if len(answered) != blocks*ep.grain {
					t.Fatalf("%d workers: got %d results for %d units", workers, len(answered), blocks*ep.grain)
				}
				drained := 0
				for b := 0; b < blocks; b++ {
					block := answered[b*ep.grain : (b+1)*ep.grain]
					for _, ok := range block {
						if ok != block[0] {
							t.Fatalf("%d workers: block %d was answered in part", workers, b)
						}
					}
					if block[0] {
						drained++
					}
				}
				if drained != 2 {
					t.Fatalf("%d workers: %d blocks answered, want the 2 claimed before the cancellation", workers, drained)
				}
			}
		})
	}
}

// TestCancellationRacingCompletionIsNotAnError pins the claim-before-check
// ordering: a cancellation that lands after every claim block has been
// claimed must not flag the finished work as canceled. The counting context
// admits exactly the entry check plus one check per block — any
// post-completion check would observe cancellation and spuriously fail.
func TestCancellationRacingCompletionIsNotAnError(t *testing.T) {
	const blocks = 2
	for _, ep := range entryPoints(t) {
		t.Run(ep.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				ctx := &countingCtx{Context: context.Background(), allow: 1 + blocks}
				answered, err := ep.run(ctx, workers, blocks*ep.grain)
				if err != nil {
					t.Fatalf("%d workers: every block was claimed but the run reported: %v", workers, err)
				}
				for i, ok := range answered {
					if !ok {
						t.Fatalf("%d workers: unit %d not answered", workers, i)
					}
				}
			}
		})
	}
}

// TestForEachStopsAtFirstError: once a task fails, no worker claims another
// task, and ForEach returns that task's error.
func TestForEachStopsAtFirstError(t *testing.T) {
	boom := errors.New("task failed")
	var ran atomic.Int64
	err := ForEach(context.Background(), 1, 8, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got err %v, want the failed task's error", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d tasks, want the 3 up to the failure", ran.Load())
	}
}

// TestBatchContainsPanics: a panic while answering one slot fails only that
// slot, with a "panicked" error, for point and set-query results alike.
func TestBatchContainsPanics(t *testing.T) {
	const n, bad = 300, 137
	for _, workers := range []int{1, 4} {
		e := New(workers)
		points, err := batch(context.Background(), e, "test batch", nil, n, nil, nil, func(_ *core.QuerySession, r *Result, i int) {
			r.DependsOn = true
			if i == bad {
				panic("malformed label")
			}
		})
		if err != nil {
			t.Fatalf("%d workers: point batch: %v", workers, err)
		}
		sets, err := batch(context.Background(), e, "test batch", nil, n, nil, nil, func(_ *core.QuerySession, r *SetResult, i int) {
			r.Value = new(query.Value)
			if i == bad {
				panic("malformed expression")
			}
		})
		if err != nil {
			t.Fatalf("%d workers: set batch: %v", workers, err)
		}
		for i := 0; i < n; i++ {
			p, s := points[i], sets[i]
			if i != bad {
				if p.Err != nil || !p.DependsOn || s.Err != nil || s.Value == nil {
					t.Fatalf("%d workers: slot %d: got %+v and %+v, want answered", workers, i, p, s)
				}
				continue
			}
			for _, err := range []error{p.Err, s.Err} {
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("%d workers: panicking slot: got err %v, want a panicked error", workers, err)
				}
			}
			if p.DependsOn || s.Value != nil {
				t.Fatalf("%d workers: panicking slot kept its partial answer: %+v, %+v", workers, p, s)
			}
		}
	}
}

// TestBatchNilArgumentFailsEverySlot: a batch missing its label source,
// item index or catalog fails the call and every slot with the same error,
// so callers that drop the batch error still see it per query.
func TestBatchNilArgumentFailsEverySlot(t *testing.T) {
	e := New(2)
	ctx := context.Background()
	queries := make([]ItemQuery, 5)
	check := func(path string, errs []error, err error) {
		t.Helper()
		if err == nil || len(errs) != len(queries) {
			t.Fatalf("%s: want a batch error and %d per-query errors, got %v, %d results", path, len(queries), err, len(errs))
		}
		for i, got := range errs {
			if got != err {
				t.Fatalf("%s: query %d: got %v, want the batch error %v", path, i, got, err)
			}
		}
	}
	pointErrs := func(results []Result) []error {
		errs := make([]error, len(results))
		for i, r := range results {
			errs[i] = r.Err
		}
		return errs
	}
	setErrs := func(results []SetResult) []error {
		errs := make([]error, len(results))
		for i, r := range results {
			errs[i] = r.Err
		}
		return errs
	}
	results, err := e.DependsOnItemsBatchContext(ctx, nil, nil, queries)
	check("items batch, nil label source", pointErrs(results), err)
	results, err = e.DependsOnIndexBatchContext(ctx, nil, nil, queries)
	check("index batch, nil item index", pointErrs(results), err)
	exprs := make([]*query.Expr, len(queries))
	idx := core.BuildItemIndex(0, 0, func(int) (core.DataLabel, bool) { return core.DataLabel{}, false })
	sets, err := e.SetQueryBatchContext(ctx, nil, "v", idx, exprs)
	check("set batch, nil catalog", setErrs(sets), err)
	sets, err = e.SetQueryBatchContext(ctx, &Server{}, "v", nil, exprs)
	check("set batch, nil item index", setErrs(sets), err)
}

func TestBatchUncanceledContextMatchesPlainBatch(t *testing.T) {
	vl, queries := fixture(t, core.VariantQueryEfficient, 300)
	want := New(4).DependsOnBatch(vl, queries)
	got, err := New(4).DependsOnBatchContext(context.Background(), vl, queries)
	if err != nil {
		t.Fatalf("uncanceled context: %v", err)
	}
	for i := range got {
		if got[i].DependsOn != want[i].DependsOn || (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("query %d: context batch answered (%v, %v), plain batch (%v, %v)",
				i, got[i].DependsOn, got[i].Err, want[i].DependsOn, want[i].Err)
		}
	}
}

func TestServerContextErrors(t *testing.T) {
	vl, queries := fixture(t, core.VariantQueryEfficient, 8)
	srv, err := NewServer(schemeOf(t, vl), []*core.ViewLabel{vl}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DependsOnBatchContext(context.Background(), "no-such-view", queries); !errors.Is(err, faults.ErrUnknownView) {
		t.Fatalf("unknown view: got %v, want ErrUnknownView", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.DependsOnBatchContext(ctx, vl.View().Name, queries); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want ErrCanceled", err)
	}
	results, err := srv.DependsOnBatchContext(context.Background(), vl.View().Name, queries)
	if err != nil || len(results) != len(queries) {
		t.Fatalf("healthy batch: got %d results, err %v", len(results), err)
	}
}

// schemeOf recovers the scheme a view label was computed over via its view's
// specification, keeping the test independent of fixture internals.
func schemeOf(tb testing.TB, vl *core.ViewLabel) *core.Scheme {
	tb.Helper()
	scheme, err := core.NewScheme(vl.View().Spec)
	if err != nil {
		tb.Fatal(err)
	}
	return scheme
}

// TestEffectiveWorkersUniformDefault is the regression test for the
// workers<=0 convention: every constructor and the zero value resolve to
// GOMAXPROCS through the same EffectiveWorkers rule.
func TestEffectiveWorkersUniformDefault(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := EffectiveWorkers(0); got != procs {
		t.Fatalf("EffectiveWorkers(0) = %d, want GOMAXPROCS = %d", got, procs)
	}
	if got := EffectiveWorkers(-7); got != procs {
		t.Fatalf("EffectiveWorkers(-7) = %d, want GOMAXPROCS = %d", got, procs)
	}
	if got := EffectiveWorkers(3); got != 3 {
		t.Fatalf("EffectiveWorkers(3) = %d, want 3", got)
	}
	for _, workers := range []int{0, -1} {
		if got := New(workers).Workers(); got != procs {
			t.Fatalf("New(%d).Workers() = %d, want GOMAXPROCS = %d", workers, got, procs)
		}
	}
	var zero Engine
	if got := zero.Workers(); got != procs {
		t.Fatalf("zero-value Engine.Workers() = %d, want GOMAXPROCS = %d", got, procs)
	}
	vl, _ := fixture(t, core.VariantQueryEfficient, 1)
	srv, err := NewServer(schemeOf(t, vl), []*core.ViewLabel{vl}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Engine().Workers(); got != procs {
		t.Fatalf("NewServer(..., 0) workers = %d, want GOMAXPROCS = %d", got, procs)
	}
}
