// Package engine serves reachability queries concurrently. The query-context
// refactor of package core made view labels strictly read-only after
// construction, so one label — a few KB of matrices — can answer queries from
// any number of goroutines at once; this package adds the serving layer on
// top: a worker pool that drains batches of queries against a shared label,
// with one pinned query context per worker so the per-query allocation count
// stays flat no matter how large the batch is.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faults"
)

// Query is one reachability question: does the item labeled D2 depend on the
// item labeled D1?
type Query struct {
	D1, D2 core.DataLabel
}

// Result is the answer to one query. Err is non-nil when the query's labels
// are invalid for the view (e.g. an item the view hides); the other queries
// of the batch are unaffected.
type Result struct {
	DependsOn bool
	Err       error
}

// maxGrain caps the number of consecutive queries a worker claims per fetch
// of the shared cursor. Claiming blocks instead of single queries keeps the
// atomic counter off the hot path: at sub-microsecond query latencies,
// per-query contention on the cursor would dominate the work itself. Small
// batches use a finer grain (see batchGrain) so they still fan out.
const maxGrain = 64

// batchGrain picks the claim-block size for a batch: coarse for large
// batches, but never so coarse that the batch occupies fewer claim blocks
// than there are workers.
func batchGrain(queries, workers int) int {
	g := queries / workers
	if g < 1 {
		g = 1
	}
	if g > maxGrain {
		g = maxGrain
	}
	return g
}

// EffectiveWorkers is the single point that normalizes a worker-pool size:
// workers <= 0 means GOMAXPROCS, any positive count is used as-is. Every
// worker-pool entry point of the system — engine.New, the zero-value Engine,
// NewServer/NewServerFromSnapshot and drl.LabelRunViews — resolves its worker
// count through this function, so "0 means GOMAXPROCS" holds uniformly.
func EffectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEach runs fn(i) for every index in [0, n) over a pool of workers
// (normalized by EffectiveWorkers), claiming indices one at a time through
// claim, the claim loop every batch of the engine also runs on. Parallel
// multi-view labeling in drl and the fvl façade both delegate here, so the
// cancellation and error-selection semantics cannot diverge between them:
//
//   - the context is checked between tasks (and once at entry);
//     cancellation stops workers from starting further tasks — in-flight
//     calls finish, a fully exhausted task set is never flagged — and
//     ForEach returns an error wrapping faults.ErrCanceled;
//   - if any fn returns an error, workers stop claiming and the
//     lowest-indexed error recorded is returned.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("engine: work not started: %w (%v)", faults.ErrCanceled, err)
	}
	errs := make([]error, n)
	cause := claim(ctx, workers, n, 1, nil, nil, func(_ struct{}, i int) bool {
		errs[i] = fn(i)
		return errs[i] != nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cause != nil {
		return fmt.Errorf("engine: canceled with tasks unclaimed: %w (%v)", faults.ErrCanceled, cause)
	}
	return nil
}

// claim is the one claim loop of the package: it runs do(w, i) for every
// index in [0, n) over a pool of workers (normalized by EffectiveWorkers and
// capped at n); a single worker runs inline. Each worker opens its own
// state w (when open is not nil), claims grain-sized blocks from a shared
// cursor and hands w to release (when not nil) once it stops. A do that
// reports stop keeps every worker from claiming further blocks.
//
// A worker claims a block, then checks the context, then drains the block.
// A worker that finds the work exhausted exits without checking, so a
// cancellation racing with completion cannot flag finished work as
// canceled; and no check sits inside a block, so do runs on every index of
// a claimed block or on none. claim returns the cancellation cause it
// observed when blocks went unclaimed, else nil.
func claim[W any](ctx context.Context, workers, n, grain int, open func() W, release func(W), do func(w W, i int) (stop bool)) error {
	workers = min(EffectiveWorkers(workers), n)
	var cursor atomic.Int64
	var stopped atomic.Bool
	work := func() error {
		var w W
		if open != nil {
			w = open()
		}
		if release != nil {
			defer release(w)
		}
		for {
			lo := int(cursor.Add(int64(grain))) - grain
			if lo >= n || stopped.Load() {
				return nil
			}
			if err := context.Cause(ctx); err != nil {
				return err
			}
			for i, hi := lo, min(lo+grain, n); i < hi; i++ {
				if do(w, i) {
					stopped.Store(true)
				}
			}
		}
	}
	if workers <= 1 {
		return work()
	}
	causes := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			causes[w] = work()
		}()
	}
	wg.Wait()
	for _, err := range causes {
		if err != nil {
			return err
		}
	}
	return nil
}

// Engine is a concurrent batch query engine over view labels. The zero
// value serves batches with GOMAXPROCS workers, like New(0). An Engine is
// safe for concurrent use; the only state it keeps between calls is the
// plan-cache share, which is pure amortization — dropping it changes
// nothing but latency.
type Engine struct {
	workers int

	// share hands each worker's plan-scoped cache to the next batch at the
	// same pinned item index (epoch), so edge matrices and chain products are
	// computed once per epoch per label instead of once per batch. See
	// core.PlanShare.
	share core.PlanShare
}

// New returns an engine with the given worker-pool size, normalized by
// EffectiveWorkers (workers <= 0 means GOMAXPROCS).
func New(workers int) *Engine {
	return &Engine{workers: EffectiveWorkers(workers)}
}

// Workers returns the effective worker-pool size; for the zero-value Engine
// it reports GOMAXPROCS, matching how batches are actually served.
func (e *Engine) Workers() int { return EffectiveWorkers(e.workers) }

// WorkerSweep returns the conventional scaling sweep 1, 2, 4, ..., max
// (with max always included), shared by the engine benchmarks and the
// bench harness's concurrent-serving experiment.
func WorkerSweep(max int) []int {
	sweep := []int{1}
	for w := 2; w < max; w *= 2 {
		sweep = append(sweep, w)
	}
	if max > 1 {
		sweep = append(sweep, max)
	}
	return sweep
}

// DependsOnBatch answers all queries against one shared view label, fanning
// them out over the worker pool. results[i] corresponds to queries[i]. Each
// worker holds one pooled query context with a plan-scoped cache drawn from
// the engine's share (core.QuerySession.AttachPlan), so the matrix scratch
// storage is reused across the worker's queries and the space-efficient
// variant's on-the-fly edge matrices are computed once per worker rather than
// once per query — the batch path deliberately opts out of the per-query
// honesty that bare core.DependsOn calls keep for the Figure 20 experiment.
func (e *Engine) DependsOnBatch(vl *core.ViewLabel, queries []Query) []Result {
	results, _ := e.DependsOnBatchContext(context.Background(), vl, queries)
	return results
}

// DependsOnBatchContext is DependsOnBatch with cancellation: every worker
// re-checks the context between claim blocks, so a canceled context stops
// the batch at claim-block granularity — blocks already being drained
// finish (they are at most maxGrain queries each), the rest are never
// drained, and a batch whose blocks were all claimed before the
// cancellation completes normally. On cancellation the partial results are
// returned together with an error wrapping faults.ErrCanceled; results for
// undrained queries are the zero Result.
func (e *Engine) DependsOnBatchContext(ctx context.Context, vl *core.ViewLabel, queries []Query) ([]Result, error) {
	return batch(ctx, e, "batch", nil, len(queries), nil, nil, func(s *core.QuerySession, r *Result, i int) {
		r.DependsOn, r.Err = s.DependsOn(vl, queries[i].D1, queries[i].D2)
	})
}

// ItemQuery is one reachability question posed by data item ID instead of by
// label: does the item with ID To depend on the item with ID From? Labels are
// resolved through a LabelSource at answer time, which is what lets batches
// run against a live session's pinned step prefix.
type ItemQuery struct {
	From, To int
}

// LabelSource resolves data item IDs to labels drawn from one consistent
// step prefix of a run. Implementations must be safe for concurrent use and
// immutable for the duration of a batch — a live session's published prefix
// and a completed run's core.RunLabeler both qualify.
type LabelSource interface {
	Label(itemID int) (core.DataLabel, bool)
}

// DependsOnItemsBatchContext answers item-ID queries against one view label
// over the worker pool, resolving each ID through src. An ID src cannot
// resolve — unknown, or not yet produced at the prefix src represents —
// fails that query's Result with an error wrapping faults.ErrUnknownItem;
// the rest of the batch is unaffected. Cancellation behaves exactly like
// DependsOnBatchContext: claim-block granularity, partial results returned
// with an error wrapping faults.ErrCanceled.
func (e *Engine) DependsOnItemsBatchContext(ctx context.Context, vl *core.ViewLabel, src LabelSource, queries []ItemQuery) ([]Result, error) {
	var argErr error
	if src == nil {
		argErr = fmt.Errorf("engine: nil label source")
	}
	return batch(ctx, e, "items batch", nil, len(queries), argErr, nil, func(s *core.QuerySession, r *Result, i int) {
		r.DependsOn, r.Err = serveItem(s, vl, src, queries[i])
	})
}

// DependsOnIndexBatchContext answers item-ID queries against one view label
// over the worker pool, resolving each ID through the pinned item index idx
// (core.QuerySession.DependsOnIndexed) instead of a LabelSource. Each worker
// draws its plan from the engine's share under idx, so the point queries
// read the visibility bits and chain products that set batches over the
// same index cached, and leave theirs for the next batch. Answers equal
// DependsOnItemsBatchContext's over the labels idx was built from; IDs idx
// holds no label for fail only their own Result with faults.ErrUnknownItem.
// Cancellation behaves like DependsOnBatchContext.
func (e *Engine) DependsOnIndexBatchContext(ctx context.Context, vl *core.ViewLabel, idx *core.ItemIndex, queries []ItemQuery) ([]Result, error) {
	var argErr error
	if idx == nil {
		argErr = fmt.Errorf("engine: nil item index")
	}
	return batch(ctx, e, "index batch", idx, len(queries), argErr, nil, func(s *core.QuerySession, r *Result, i int) {
		r.DependsOn, r.Err = s.DependsOnIndexed(vl, idx, queries[i].From, queries[i].To)
	})
}

// slot constrains a batch's result type R (Result or SetResult) through its
// pointer P, which records a failure in the slot.
type slot[R any] interface {
	*R
	fail(err error)
}

func (r *Result) fail(err error) { *r = Result{Err: err} }

// batch is the one body of every batch entry point; the entry points differ
// only in answer, which fills one slot of the results on a worker's query
// session. A context canceled before the start yields nil results, and a
// nil argument (argErr) fails every slot with argErr. Otherwise start, when
// not nil, prepares the results single-threaded and reports whether any
// slot is left to answer, and claim answers the slots over the worker pool
// in batchGrain blocks. Each worker holds one pooled query session with a
// plan-scoped cache drawn from the engine's share under idx (nil for label
// and item batches): edge matrices (and, for set-query batches, chain
// products and visibility rows) amortize across the worker's share of the
// batch, and via the share across every batch served at the same pinned
// index. A panic in answer — e.g. from a malformed label the decoder did
// not anticipate — fails only its own slot. On cancellation the partial
// results are returned with an error wrapping faults.ErrCanceled.
func batch[R any, P slot[R]](ctx context.Context, e *Engine, kind string, idx *core.ItemIndex, n int, argErr error, start func([]R) bool, answer func(s *core.QuerySession, r P, i int)) ([]R, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("engine: %s not started: %w (%v)", kind, faults.ErrCanceled, err)
	}
	results := make([]R, n)
	if argErr != nil {
		for i := range results {
			P(&results[i]).fail(argErr)
		}
		return results, argErr
	}
	if start != nil && !start(results) {
		return results, nil
	}
	workers := e.Workers()
	open := func() *core.QuerySession {
		s := core.NewQuerySession()
		s.AttachPlan(e.share.Acquire(idx))
		return s
	}
	release := func(s *core.QuerySession) {
		// DetachPlan returns whatever cache the worker ends with (EnsurePlan
		// may have replaced the attached one mid-batch), so the warmed
		// cache is what the next batch inherits.
		e.share.Release(s.DetachPlan())
		s.Close()
	}
	cause := claim(ctx, workers, n, batchGrain(n, workers), open, release, func(s *core.QuerySession, i int) bool {
		r := P(&results[i])
		defer func() {
			if x := recover(); x != nil {
				r.fail(fmt.Errorf("engine: query panicked: %v", x))
			}
		}()
		answer(s, r, i)
		return false
	})
	if cause != nil {
		return results, fmt.Errorf("engine: %s canceled with claim blocks undrained: %w (%v)", kind, faults.ErrCanceled, cause)
	}
	return results, nil
}

// serveItem resolves one item-ID query through the label source and answers
// it.
func serveItem(s *core.QuerySession, vl *core.ViewLabel, src LabelSource, q ItemQuery) (bool, error) {
	d1, ok := src.Label(q.From)
	if !ok {
		return false, fmt.Errorf("engine: item %d: %w", q.From, faults.ErrUnknownItem)
	}
	d2, ok := src.Label(q.To)
	if !ok {
		return false, fmt.Errorf("engine: item %d: %w", q.To, faults.ErrUnknownItem)
	}
	return s.DependsOn(vl, d1, d2)
}
