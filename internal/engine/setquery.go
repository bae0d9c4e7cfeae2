package engine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
)

// SetResult is the answer to one set-query expression of a batch. Err is
// non-nil when the expression failed to compile (Plan is then nil) or when
// execution failed (an unknown or hidden target item); the other expressions
// of the batch are unaffected. Value carries the bitset-row answer.
type SetResult struct {
	Value *query.Value
	Plan  *query.Plan
	Err   error
}

func (r *SetResult) fail(err error) { r.Value, r.Err = nil, err }

// SetQueryBatchContext compiles every expression against the catalog (single
// threaded — compilation is cheap and its errors are per-expression), then
// executes the compiled plans over the worker pool through the same batch
// body the point-query batches use: one pooled query session per worker, each
// with a plan-scoped cache keyed to idx, so edge matrices, chain products and
// visibility rows amortize across the worker's whole share of the batch.
// Cancellation matches DependsOnBatchContext: claim-block granularity,
// partial results returned with an error wrapping faults.ErrCanceled.
func (e *Engine) SetQueryBatchContext(ctx context.Context, cat query.Catalog, primaryView string, idx *core.ItemIndex, exprs []*query.Expr) ([]SetResult, error) {
	var argErr error
	switch {
	case cat == nil:
		argErr = fmt.Errorf("engine: nil catalog")
	case idx == nil:
		argErr = fmt.Errorf("engine: nil item index")
	}
	compile := func(results []SetResult) (runnable bool) {
		for i, ex := range exprs {
			results[i].Plan, results[i].Err = query.Compile(cat, primaryView, ex)
			runnable = runnable || results[i].Err == nil
		}
		return runnable
	}
	return batch(ctx, e, "set-query batch", idx, len(exprs), argErr, compile, func(s *core.QuerySession, r *SetResult, i int) {
		if r.Plan != nil {
			r.Value, r.Err = r.Plan.Execute(s, idx)
		}
	})
}

// SetQueryBatchContext answers set-query expressions against the served
// labels over the worker pool. The primary view must be served (the per-
// expression compile step would report it for every expression anyway;
// checking upfront gives the caller one clear faults.ErrUnknownView).
// Expressions referencing unserved views in between(...) fail only their own
// SetResult.
func (s *Server) SetQueryBatchContext(ctx context.Context, primaryView string, idx *core.ItemIndex, exprs []*query.Expr) ([]SetResult, error) {
	if _, err := s.view(primaryView); err != nil {
		return nil, err
	}
	return s.engine.SetQueryBatchContext(ctx, s, primaryView, idx, exprs)
}
