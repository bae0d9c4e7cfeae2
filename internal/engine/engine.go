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
// (normalized by EffectiveWorkers), claiming indices one at a time. It is
// the single claim-loop implementation shared by every "independent tasks
// over a worker pool" path of the system — parallel multi-view labeling in
// drl and the fvl façade both delegate here — so the cancellation and
// error-selection semantics cannot diverge between them:
//
//   - the context is checked between tasks (and once at entry);
//     cancellation stops workers from starting further tasks — in-flight
//     calls finish, a fully exhausted task set is never flagged — and
//     ForEach returns an error wrapping faults.ErrCanceled;
//   - if any fn returns an error, workers stop claiming and the
//     lowest-indexed error recorded is returned.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: work not started: %w (%v)", faults.ErrCanceled, err)
	}
	workers = EffectiveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("engine: canceled after %d of %d tasks: %w (%v)", i, n, faults.ErrCanceled, err)
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var cursor atomic.Int64
	var failed, canceled atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// Claim before checking the context: once the work is
				// exhausted the worker exits plainly, so a cancellation
				// racing with completion cannot produce a spurious
				// ErrCanceled for a fully finished task set.
				i := int(cursor.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					// Don't burn workers on tasks whose results this
					// error is about to discard.
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if canceled.Load() {
		return fmt.Errorf("engine: canceled with tasks unclaimed: %w (%v)", faults.ErrCanceled, context.Cause(ctx))
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
// worker holds one pooled query context with a plan-scoped cache attached
// (core.QuerySession.EnsurePlan), so the matrix scratch storage is reused
// across the worker's queries and the space-efficient variant's on-the-fly
// edge matrices are computed once per worker rather than once per query — the
// batch path deliberately opts out of the per-query honesty that bare
// core.DependsOn calls keep for the Figure 20 experiment.
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
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: batch not started: %w (%v)", faults.ErrCanceled, err)
	}
	results := make([]Result, len(queries))
	if e.fanOut(ctx, nil, len(queries), func(s *core.QuerySession, i int) {
		results[i] = contained(func() (bool, error) { return s.DependsOn(vl, queries[i].D1, queries[i].D2) })
	}) {
		return results, fmt.Errorf("engine: batch canceled with claim blocks undrained: %w (%v)", faults.ErrCanceled, context.Cause(ctx))
	}
	return results, nil
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
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: items batch not started: %w (%v)", faults.ErrCanceled, err)
	}
	if src == nil {
		results := make([]Result, len(queries))
		err := fmt.Errorf("engine: nil label source")
		for i := range results {
			results[i].Err = err
		}
		return results, err
	}
	results := make([]Result, len(queries))
	if e.fanOut(ctx, nil, len(queries), func(s *core.QuerySession, i int) {
		results[i] = contained(func() (bool, error) { return serveItem(s, vl, src, queries[i]) })
	}) {
		return results, fmt.Errorf("engine: items batch canceled with claim blocks undrained: %w (%v)", faults.ErrCanceled, context.Cause(ctx))
	}
	return results, nil
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
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: index batch not started: %w (%v)", faults.ErrCanceled, err)
	}
	results := make([]Result, len(queries))
	if idx == nil {
		err := fmt.Errorf("engine: nil item index")
		for i := range results {
			results[i].Err = err
		}
		return results, err
	}
	if e.fanOut(ctx, idx, len(queries), func(s *core.QuerySession, i int) {
		results[i] = contained(func() (bool, error) { return s.DependsOnIndexed(vl, idx, queries[i].From, queries[i].To) })
	}) {
		return results, fmt.Errorf("engine: index batch canceled with claim blocks undrained: %w (%v)", faults.ErrCanceled, context.Cause(ctx))
	}
	return results, nil
}

// fanOut is the shared claim loop of every batch path: it runs answer(s, i)
// for every index in [0, n) over the worker pool, each worker holding one
// pooled query context, claiming grain-sized blocks from a shared cursor.
// idx is the pinned item index of a set-query or index-resolved point batch
// (nil for label batches); it keys the plan caches the workers draw from the
// engine's share. fanOut reports whether cancellation left claim blocks
// undrained.
func (e *Engine) fanOut(ctx context.Context, idx *core.ItemIndex, n int, answer func(s *core.QuerySession, i int)) bool {
	workers := EffectiveWorkers(e.workers)
	if workers > n {
		workers = n
	}
	var canceled atomic.Bool
	if workers <= 1 {
		// The single worker still drains in maxGrain-sized claim blocks so
		// the documented cancellation granularity holds regardless of the
		// pool size; one uncontended atomic add per block is noise.
		e.serveClaims(ctx, idx, n, new(atomic.Int64), batchGrain(n, 1), &canceled, answer)
	} else {
		grain := batchGrain(n, workers)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				e.serveClaims(ctx, idx, n, &cursor, grain, &canceled, answer)
			}()
		}
		wg.Wait()
	}
	return canceled.Load()
}

// serveClaims drains grain-sized blocks of the batch until the cursor passes
// the end or the context is canceled.
func (e *Engine) serveClaims(ctx context.Context, idx *core.ItemIndex, n int, cursor *atomic.Int64, grain int, canceled *atomic.Bool, answer func(s *core.QuerySession, i int)) {
	if grain < 1 {
		return
	}
	s := core.NewQuerySession()
	defer s.Close()
	// One plan-scoped cache per worker, drawn from the engine's epoch-keyed
	// share: edge matrices (and, for set-query batches, chain products and
	// visibility rows) amortize across the worker's whole share of the batch
	// — and, via the share, across every batch served at the same pinned
	// index. DetachPlan returns whatever cache the worker ends
	// with (EnsurePlan may have replaced the attached one mid-batch), so the
	// warmed cache is what the next session inherits.
	s.AttachPlan(e.share.Acquire(idx))
	defer func() { e.share.Release(s.DetachPlan()) }()
	for {
		// Claim, then check the context, then drain: a worker that finds the
		// batch exhausted exits plainly (so a cancellation racing with
		// completion cannot flag a fully drained batch as canceled), and the
		// cancellation check never sits inside the inner loop, so results[i]
		// is either fully computed or untouched, never half-done.
		lo := int(cursor.Add(int64(grain))) - grain
		if lo >= n {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			answer(s, i)
		}
	}
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

// contained answers a single query, converting a panic — e.g. from a
// malformed label the decoder did not anticipate — into that query's error,
// so one bad query cannot take down the whole batch.
func contained(answer func() (bool, error)) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("engine: query panicked: %v", r)}
		}
	}()
	ok, err := answer()
	return Result{DependsOn: ok, Err: err}
}
