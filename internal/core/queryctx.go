package core

import (
	"sync"

	"repro/internal/boolmat"
	"repro/internal/safety"
)

// queryCtx carries every piece of mutable state one DependsOn query needs:
// the per-query closure cache of the graph-search path and a bump-allocated
// pool of scratch matrices for the suffix products and row vectors of
// Algorithm 2. Threading it explicitly through the decode path keeps
// ViewLabel strictly read-only after construction, so any number of
// goroutines can query one label (or shallow copies of it, see
// WithMatrixFree) concurrently, each with its own context.
//
// Contexts are reusable: begin resets the bump allocator and drops the
// closures of the previous query while keeping the matrix storage, so a
// warmed-up context answers queries without allocating. Dropping the
// closures — never the matrices, whose contents are always overwritten — is
// what preserves the query-state-honesty invariant: the closure cache is
// born empty on every query, so the space-efficient variant pays its full
// graph-search cost per query exactly as charged in the paper's Figure 20
// experiment.
//
// The invariant can be relaxed deliberately: a context with a PlanCache
// attached (QuerySession.EnsurePlan) serves the I, O and Z matrices from the
// plan's cache instead, which survives begin and never touches the closure
// memo — that is the amortization the batch engine and the set-query plans
// opt into.
type queryCtx struct {
	// closures caches on-the-fly port closures within one query so a single
	// query does not recompute the same production twice. It is only ever
	// populated on the plan-free graph-search path, the edge resolver's last
	// source (ViewLabel.edge), i.e. when the label has no table of
	// materialized matrices — VariantSpaceEfficient — and no plan is
	// attached.
	closures map[int]*safety.Closure

	// plan, when non-nil, is the plan-scoped cache the I, O and Z matrices
	// and recursion chains (and the set-query scans' chain products and
	// visibility bits) are served from instead of being recomputed per
	// query. begin never touches it.
	plan *PlanCache

	// scratch is a bump-allocated arena of matrices: every take returns a
	// distinct slot, so no two live intermediate results of one query share
	// storage, and a recycled context reuses the previous query's storage
	// via the reshaping In kernels of boolmat.
	scratch []*boolmat.Matrix
	used    int

	// chain is the factor chain of the main case candidateRow evaluates,
	// kept here so the scans do not clear one per group.
	chain decodeChain

	// prod is the header through which suffixProduct hands out a product
	// cached in the plan's words. It aliases those words, so it never enters
	// the scratch arena, whose slots the In kernels overwrite.
	prod boolmat.Matrix

	// tailHits counts the main-case candidates whose target side a tail
	// memo answered, all of them at 0 and those of case 2b at 1. Tests read
	// it to check that the scans' memo hits.
	tailHits [2]int
}

// begin readies the context for a new query: the scratch arena rewinds and
// the closure cache of the previous query is dropped (entries, not storage).
func (qc *queryCtx) begin() {
	qc.used = 0
	clear(qc.closures)
}

// rewind resets only the bump allocator, to mark slots. The set-query scans
// use it between groups: everything a group's result depends on across
// rewinds lives in the plan cache's words, in the label itself or in the
// scan's memo below mark, never in the slots rewound.
func (qc *queryCtx) rewind(mark int) {
	qc.used = mark
}

// take returns the index of a fresh scratch slot.
func (qc *queryCtx) take() int {
	if qc.used == len(qc.scratch) {
		qc.scratch = append(qc.scratch, nil)
	}
	i := qc.used
	qc.used++
	return i
}

// identity returns an n x n identity matrix backed by a scratch slot.
func (qc *queryCtx) identity(n int) *boolmat.Matrix {
	i := qc.take()
	qc.scratch[i] = boolmat.IdentityInto(qc.scratch[i], n)
	return qc.scratch[i]
}

// zero returns an all-false r x c matrix backed by a scratch slot.
func (qc *queryCtx) zero(r, c int) *boolmat.Matrix {
	i := qc.take()
	qc.scratch[i] = boolmat.Zero(qc.scratch[i], r, c)
	return qc.scratch[i]
}

// queryCtxPool recycles contexts across queries and goroutines. DependsOn
// draws from it per call; QuerySession pins one context for a worker that
// issues many queries back to back.
var queryCtxPool = sync.Pool{New: func() any { return new(queryCtx) }}

// QuerySession is a reusable per-goroutine query context. A session must not
// be shared between goroutines; the labels it queries can be. Workers that
// answer many queries in a row (see internal/engine) hold one session each
// so the scratch storage of a query is recycled by the next without a trip
// through the pool.
type QuerySession struct {
	qc *queryCtx
}

// NewQuerySession draws a context from the shared pool.
func NewQuerySession() *QuerySession {
	return &QuerySession{qc: queryCtxPool.Get().(*queryCtx)}
}

// DependsOn answers one reachability query against vl using the session's
// context. It is equivalent to vl.DependsOn(d1, d2).
func (s *QuerySession) DependsOn(vl *ViewLabel, d1, d2 DataLabel) (bool, error) {
	return vl.dependsOn(s.qc, d1, d2)
}

// DependsOnIndexed answers the point query "does item to depend on item
// from?" against vl with both items resolved through idx. The answer and its
// errors.Is class equal DependsOn(vl, label(from), label(to)) for the labels
// idx was built from; an ID idx holds no label for fails with
// faults.ErrUnknownItem. With a plan for idx attached (EnsurePlan, or one
// drawn from a PlanShare), visibility and the path-suffix chain products come
// from the plan's per-instance tables that the set scans over idx fill, so a
// warm plan answers without recomputing any chain.
func (s *QuerySession) DependsOnIndexed(vl *ViewLabel, idx *ItemIndex, from, to int) (bool, error) {
	return vl.dependsOnIndexed(s.qc, idx, from, to)
}

// EnsurePlan attaches a plan-scoped cache to the session and returns it:
// edge matrices and recursion chains (and, with a non-nil index, the
// set-query scans' chain products and visibility bits) are then amortized
// across every query the session answers, instead of being recomputed per
// query. Passing nil keeps whatever plan is already attached (or attaches an
// index-free one, which amortizes edge matrices and recursion chains only);
// passing an index replaces a plan keyed to a different index, because
// instance and item rows are only meaningful against the index that minted them.
//
// The attached plan lives until Close or the next index switch; a session
// drawn fresh from the pool always starts without one, so plain DependsOn
// calls keep the query-state-honesty invariant unless a caller opts in.
func (s *QuerySession) EnsurePlan(idx *ItemIndex) *PlanCache {
	pc := s.qc.plan
	if pc == nil || (idx != nil && pc.idx != idx) {
		pc = newPlanCache(idx)
		s.qc.plan = pc
	}
	return pc
}

// AttachPlan attaches a specific plan-scoped cache — typically one drawn
// from a PlanShare — to the session, replacing whatever plan was attached.
// The session owns the cache until DetachPlan or Close; attaching a cache
// that another live session still uses is a data race, which is why caches
// move through a PlanShare rather than being handed around directly.
// Attaching nil restores the bare, honestly-accounted state.
func (s *QuerySession) AttachPlan(pc *PlanCache) { s.qc.plan = pc }

// DetachPlan removes and returns the session's plan cache (nil if none),
// leaving the session bare. The usual pairing is Acquire/AttachPlan before
// a batch and Release(DetachPlan()) after it, so the cache — including
// anything EnsurePlan minted mid-batch to replace it — survives into the
// next session at the same epoch.
func (s *QuerySession) DetachPlan() *PlanCache {
	pc := s.qc.plan
	s.qc.plan = nil
	return pc
}

// DepsRow answers the set query Deps(itemID) against vl as a bitset row:
// bit y of the returned 1×(idx.Items()+1) row is set exactly when
// DependsOn(label(y), label(itemID)) answers (true, nil) — everything the
// item transitively depends on, in one row. See ViewLabel.depsRow.
func (s *QuerySession) DepsRow(vl *ViewLabel, idx *ItemIndex, itemID int) (*boolmat.Matrix, error) {
	return vl.depsRow(s.qc, idx, itemID)
}

// RevDepsRow answers the set query RevDeps(itemID) against vl as a bitset
// row: bit y is set exactly when DependsOn(label(itemID), label(y)) answers
// (true, nil) — everything that transitively depends on the item.
func (s *QuerySession) RevDepsRow(vl *ViewLabel, idx *ItemIndex, itemID int) (*boolmat.Matrix, error) {
	return vl.revDepsRow(s.qc, idx, itemID)
}

// VisibleRow returns the bitset row of item IDs visible in vl's view, cached
// in the session's plan. The returned matrix is shared and must be treated
// as read-only.
func (s *QuerySession) VisibleRow(vl *ViewLabel, idx *ItemIndex) *boolmat.Matrix {
	return vl.visibleRow(s.qc, idx)
}

// Close returns the session's context to the pool. The session must not be
// used afterwards. The plan cache (if any) is dropped so pooled contexts
// never leak amortized state into the next session, and so is the product
// header into its words.
func (s *QuerySession) Close() {
	if s.qc != nil {
		s.qc.plan, s.qc.prod = nil, boolmat.Matrix{}
		queryCtxPool.Put(s.qc)
		s.qc = nil
	}
}
