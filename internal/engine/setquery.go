package engine

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
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

// SetQueryBatchContext compiles every expression against the catalog (single
// threaded — compilation is cheap and its errors are per-expression), then
// executes the compiled plans over the worker pool via the same claim-block
// loop the point-query batches use: one pooled query session per worker, each
// with a plan-scoped cache keyed to idx, so edge matrices, chain products and
// visibility rows amortize across the worker's whole share of the batch.
// Cancellation matches DependsOnBatchContext: claim-block granularity,
// partial results returned with an error wrapping faults.ErrCanceled.
func (e *Engine) SetQueryBatchContext(ctx context.Context, cat query.Catalog, primaryView string, idx *core.ItemIndex, exprs []*query.Expr) ([]SetResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: set-query batch not started: %w (%v)", faults.ErrCanceled, err)
	}
	results := make([]SetResult, len(exprs))
	if cat == nil || idx == nil {
		err := fmt.Errorf("engine: nil %s", map[bool]string{true: "catalog", false: "item index"}[cat == nil])
		for i := range results {
			results[i].Err = err
		}
		return results, err
	}
	runnable := 0
	for i, ex := range exprs {
		plan, err := query.Compile(cat, primaryView, ex)
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Plan = plan
		runnable++
	}
	if runnable == 0 {
		return results, nil
	}
	if e.fanOut(ctx, idx, len(exprs), func(s *core.QuerySession, i int) {
		if results[i].Plan == nil {
			return
		}
		results[i].Value, results[i].Err = executeOne(results[i].Plan, s, idx)
	}) {
		return results, fmt.Errorf("engine: set-query batch canceled with claim blocks undrained: %w (%v)", faults.ErrCanceled, context.Cause(ctx))
	}
	return results, nil
}

// executeOne runs one plan with the same panic containment as contained: a
// malformed expression or label cannot take down the whole batch.
func executeOne(p *query.Plan, s *core.QuerySession, idx *core.ItemIndex) (v *query.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("engine: set query panicked: %v", r)
		}
	}()
	return p.Execute(s, idx)
}

// SetQueryBatchContext answers set-query expressions against the served
// labels over the worker pool. The primary view must be served (the per-
// expression compile step would report it for every expression anyway;
// checking upfront gives the caller one clear faults.ErrUnknownView).
// Expressions referencing unserved views in between(...) fail only their own
// SetResult.
func (s *Server) SetQueryBatchContext(ctx context.Context, primaryView string, idx *core.ItemIndex, exprs []*query.Expr) ([]SetResult, error) {
	if _, ok := s.labels[primaryView]; !ok {
		return nil, fmt.Errorf("engine: no label for view %q (serving %v): %w", primaryView, s.Views(), faults.ErrUnknownView)
	}
	return s.engine.SetQueryBatchContext(ctx, s, primaryView, idx, exprs)
}
