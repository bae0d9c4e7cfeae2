package fvl

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/query"
)

// QueryExpr is a set-oriented provenance query: instead of one point
// DependsOn question, it denotes a whole set of items or item pairs —
// everything an item depends on, everything derived from it, the flow between
// two views, or the initial inputs explaining an output set — optionally
// combined with union, intersection and projection. Expressions are built
// with the constructor functions below or parsed from the canonical text form
// with ParseQueryExpr, and answered by Service.Query or Session.Query.
//
// Like Spec construction, the builders accumulate errors instead of returning
// them at every step: combining expressions stays composable, and the first
// construction error surfaces when the expression is used (or via Err).
type QueryExpr struct {
	e   *query.Expr
	err error
}

// DepsOf builds deps(item): everything the item transitively depends on.
func DepsOf(item int) QueryExpr { return wrapExpr(query.Deps(item)) }

// RevDepsOf builds revdeps(item): everything that transitively depends on
// the item.
func RevDepsOf(item int) QueryExpr { return wrapExpr(query.RevDeps(item)) }

// BetweenViews builds between(viewA, viewB): all pairs (a, b) with a visible
// in viewA, b visible in viewB, and b dependent on a under the view the query
// is answered against.
func BetweenViews(viewA, viewB string) QueryExpr { return wrapExpr(query.Between(viewA, viewB)) }

// ExplainOutputs builds explain(items...): the initial inputs that some item
// of the output set transitively depends on.
func ExplainOutputs(items ...int) QueryExpr { return wrapExpr(query.Explain(items...)) }

// Union combines two expressions of the same result kind into their union.
func (q QueryExpr) Union(o QueryExpr) QueryExpr { return combine(q, o, query.Union) }

// Intersect combines two expressions of the same result kind into their
// intersection.
func (q QueryExpr) Intersect(o QueryExpr) QueryExpr { return combine(q, o, query.Intersect) }

// Project reduces a pair-set expression to the items of one side (1 or 2).
func (q QueryExpr) Project(side int) QueryExpr {
	if q.err != nil {
		return q
	}
	return wrapExpr(query.Project(q.e, side))
}

func combine(a, b QueryExpr, op func(x, y *query.Expr) *query.Expr) QueryExpr {
	if a.err != nil {
		return a
	}
	if b.err != nil {
		return b
	}
	return wrapExpr(op(a.e, b.e))
}

func wrapExpr(e *query.Expr) QueryExpr {
	if _, err := e.Kind(); err != nil {
		return QueryExpr{err: err}
	}
	return QueryExpr{e: e}
}

// ParseQueryExpr decodes the canonical text form of an expression — e.g.
// "deps(7)", "union(revdeps(3),project(between(\"A\",\"B\"),2))". The parser
// accepts exactly what String emits; malformed input fails with
// ErrInvalidQuery.
func ParseQueryExpr(s string) (QueryExpr, error) {
	e, err := query.Parse(s)
	if err != nil {
		return QueryExpr{err: err}, err
	}
	return QueryExpr{e: e}, nil
}

// String returns the canonical text form of the expression, the exact
// language ParseQueryExpr accepts. Invalid expressions render as "<invalid>".
func (q QueryExpr) String() string {
	if q.err != nil || q.e == nil {
		return "<invalid>"
	}
	return q.e.String()
}

// Err returns the first construction error of the expression, or nil.
func (q QueryExpr) Err() error { return q.err }

// Pairs reports whether the expression answers with item pairs (between and
// its combinations) rather than a plain item set.
func (q QueryExpr) Pairs() bool {
	if q.err != nil || q.e == nil {
		return false
	}
	k, err := q.e.Kind()
	return err == nil && k == query.KindPairs
}

func (q QueryExpr) expr() (*query.Expr, error) {
	if q.err != nil {
		return nil, q.err
	}
	if q.e == nil {
		return nil, fmt.Errorf("fvl: empty query expression: %w", faults.ErrInvalidQuery)
	}
	return q.e, nil
}

// SetAnswer is the materialized answer to one set query. Exactly one of
// Items/Pairs is meaningful, per the expression's result kind; Plan describes
// the access paths the planner chose. For batch surfaces Err carries that
// expression's failure, leaving the rest of the batch unaffected.
type SetAnswer struct {
	Items []int    // ascending item IDs, for item-set expressions
	Pairs [][2]int // (from, to) pairs sorted by from then to, for pair sets
	Plan  string
	Err   error
}

func setAnswerOf(r engine.SetResult) SetAnswer {
	a := SetAnswer{Err: r.Err}
	if r.Plan != nil {
		a.Plan = r.Plan.String()
	}
	if r.Err == nil && r.Value != nil {
		a.Items = r.Value.ItemIDs()
		a.Pairs = r.Value.PairList()
	}
	return a
}

// indexOf builds the core item index over a completed run's labels.
func (r *RunLabels) indexOf() *core.ItemIndex {
	return core.BuildItemIndex(0, r.Count(), r.rl.Label)
}

// Query answers one set query against the named view over a completed run's
// labels: reachability (and Explain/Deps/RevDeps targets) resolve under
// viewName, while between(...) endpoints resolve their own views. Unknown
// views fail with ErrUnknownView, malformed expressions with ErrInvalidQuery,
// and unknown or view-hidden target items with ErrUnknownItem/ErrHiddenItem.
func (s *Service) Query(ctx context.Context, viewName string, labels *RunLabels, q QueryExpr) (*SetAnswer, error) {
	answers, err := s.QueryBatch(ctx, viewName, labels, []QueryExpr{q})
	if err != nil {
		return nil, err
	}
	a := answers[0]
	if a.Err != nil {
		return nil, a.Err
	}
	return &a, nil
}

// QueryBatch answers a batch of set queries against the named view over a
// completed run's labels, fanned out over the worker pool; answers[i]
// corresponds to qs[i] and carries its own Err. The batch itself fails only
// for a nil/foreign labels argument, an unknown primary view (ErrUnknownView)
// or cancellation (ErrCanceled, partial answers returned).
func (s *Service) QueryBatch(ctx context.Context, viewName string, labels *RunLabels, qs []QueryExpr) ([]SetAnswer, error) {
	if labels == nil {
		return nil, fmt.Errorf("fvl: nil run labels")
	}
	if labels.scheme != s.scheme && labels.scheme.Spec != s.scheme.Spec {
		return nil, fmt.Errorf("fvl: run labels belong to a different specification: %w", faults.ErrForeignLabel)
	}
	return s.queryBatch(ctx, viewName, labels.indexOf(), qs)
}

func (s *Service) queryBatch(ctx context.Context, viewName string, idx *core.ItemIndex, qs []QueryExpr) ([]SetAnswer, error) {
	exprs := make([]*query.Expr, len(qs))
	precompileErrs := make([]error, len(qs))
	for i, q := range qs {
		exprs[i], precompileErrs[i] = q.expr()
	}
	results, err := s.server.SetQueryBatchContext(background(ctx), viewName, idx, exprs)
	out := make([]SetAnswer, len(results))
	for i, r := range results {
		if precompileErrs[i] != nil {
			out[i] = SetAnswer{Err: precompileErrs[i]}
			continue
		}
		out[i] = setAnswerOf(r)
	}
	return out, err
}

// ExplainQuery compiles (without executing) one expression against the named
// view and returns the planner's access-path description: which row scans
// run against which views under which serving variants.
func (s *Service) ExplainQuery(viewName string, q QueryExpr) (string, error) {
	e, err := q.expr()
	if err != nil {
		return "", err
	}
	if _, ok := s.labels[viewName]; !ok {
		return "", fmt.Errorf("fvl: no label for view %q (serving %v): %w", viewName, s.Views(), faults.ErrUnknownView)
	}
	plan, err := query.Compile(s.server, viewName, e)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// sessionIndex caches the item index of the most recent pinned prefix so
// consecutive set queries at the same epoch skip the indexing, and point
// queries at that epoch resolve through it. A new epoch
// extends the cached index rather than rebuilding it: a live prefix's labels
// are write-once over contiguous item IDs, so only the items produced since
// the cached epoch are indexed (core.ItemIndex.Extend). Every published
// index stays immutable, so batches still running against an older epoch
// are unaffected. The mutex makes this cache the lineage's single writer;
// queries come from arbitrary goroutines.
type sessionIndex struct {
	mu  sync.Mutex
	idx *core.ItemIndex
}

func (c *sessionIndex) for_(epoch uint64, n int, label func(int) (core.DataLabel, bool)) *core.ItemIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx == nil || c.idx.Epoch() != epoch {
		c.idx = c.idx.Extend(epoch, n, label)
	}
	return c.idx
}

// at returns the cached index when it is the one of the given epoch, and nil
// otherwise; it never builds or extends the index.
func (c *sessionIndex) at(epoch uint64) *core.ItemIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx != nil && c.idx.Epoch() == epoch {
		return c.idx
	}
	return nil
}

// Query answers one set query against the named view while the run is still
// executing. Like DependsOnBatch, the answer pins one published step prefix:
// the returned epoch identifies it, and the whole answer set is consistent
// with exactly that prefix. Items not yet produced at the prefix fail with
// ErrUnknownItem.
func (s *Session) Query(ctx context.Context, viewName string, q QueryExpr) (*SetAnswer, uint64, error) {
	answers, epoch, err := s.QueryBatch(ctx, viewName, []QueryExpr{q})
	if err != nil {
		return nil, epoch, err
	}
	a := answers[0]
	if a.Err != nil {
		return nil, epoch, a.Err
	}
	return &a, epoch, nil
}

// QueryBatch answers a batch of set queries against one pinned step prefix of
// the live run, fanned out over the service's worker pool; answers[i]
// corresponds to qs[i]. The item index over the prefix is cached per epoch,
// so repeated batches between producer steps pay the indexing cost once, and
// the first batch at a new epoch indexes only the items new since the last.
func (s *Session) QueryBatch(ctx context.Context, viewName string, qs []QueryExpr) ([]SetAnswer, uint64, error) {
	prefix := s.ls.Current()
	idx := s.idx.for_(prefix.Epoch(), prefix.Items(), prefix.Label)
	answers, err := s.svc.queryBatch(ctx, viewName, idx, qs)
	return answers, prefix.Epoch(), err
}
