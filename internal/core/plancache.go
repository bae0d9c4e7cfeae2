package core

import "repro/internal/boolmat"

// PlanCache is the plan-scoped counterpart of the per-query closure memo: one
// cache shared by every query a plan (or a worker's whole batch) executes, so
// a plan never recomputes an I, O or Z matrix, a recursion chain, a chain
// product, or a path-visibility check it has already paid for. It is keyed to
// one ItemIndex — i.e. one pinned step prefix (epoch) of one run — because
// its cached products and visibility bits are keyed by the instances and
// item rows of that index.
//
// Attaching a PlanCache is strictly opt-in (QuerySession.EnsurePlan). A bare
// queryCtx keeps the query-state-honesty invariant of the Figure 20
// experiment — closures born empty and edge matrices rebuilt on every query —
// while an attached plan deliberately amortizes them, which is exactly what
// the batch engine and the set-query executor want: one worker's claim block
// charges the graph search once per production, not per query.
//
// The state is dense: one planLabel per view label, whose slices are indexed
// by production, cycle offset or owner instance, so a cache access on the
// decode path is a slice index, not a hash. The only map is the label table,
// and a one-entry memo in front of it keeps even that off the path while a
// query or scan stays on one label.
//
// A PlanCache is confined to one QuerySession and therefore one goroutine;
// none of its state is locked.
type PlanCache struct {
	idx *ItemIndex // nil for point-query-only caches

	// labels holds the per-label state. Keyed by label: one plan may scan
	// several labels (Between touches up to three).
	labels map[*ViewLabel]*planLabel

	// lastVL and last memoize the most recent labels lookup.
	lastVL *ViewLabel
	last   *planLabel
}

// planLabel is a plan's cached state for one view label.
type planLabel struct {
	// edges amortizes the graph-search path of VariantSpaceEfficient: every
	// I, O and Z matrix of a production, materialized on its first use. It
	// has the layout of the materialized variants' ViewLabel.edges, indexed
	// by 1-based production number.
	edges []*prodEdges

	// chains holds the recursion chains of labels that carry no table of
	// their own (every variant but VariantQueryEfficient), built on first
	// use. It has ViewLabel.chains' layout: [side][cycle-1][offset-1], side
	// 1 the O (outputs) side.
	chains [2][][]*recChain

	// nodes is indexed by the owner instances of the plan's ItemIndex and
	// stays nil for index-free plans.
	nodes []planNode

	// visRow is the 1×(items+1) bitset row of item IDs visible in the
	// label's view.
	visRow *boolmat.Matrix

	// groups lists, per side, the positions of the index's scan groups whose
	// owners are visible in the label's view, sorted by the owners' paths
	// (scanOrder); side 1 is the producing (src) side.
	groups [2][]int32
}

// planNode is a plan's cached state for one owner instance's tree node.
type planNode struct {
	// visible caches pathVisible of the node's path: visUnknown until first
	// computed.
	visible int8

	// prods caches chain products of edge matrices along the node's path
	// suffixes, indexed [side][from], cloned out of the query context's
	// scratch arena so they survive arena rewinds.
	prods [2][]*boolmat.Matrix
}

const (
	visUnknown int8 = iota
	visYes
	visNo
)

// sideOf maps the outputs flag of the decode path to a [2] array index.
func sideOf(outputs bool) int {
	if outputs {
		return 1
	}
	return 0
}

func newPlanCache(idx *ItemIndex) *PlanCache {
	return &PlanCache{idx: idx}
}

// Index returns the item index the cache is keyed to (nil for point-query
// caches).
func (pc *PlanCache) Index() *ItemIndex { return pc.idx }

// label returns the plan's state for vl, creating it on first use.
func (pc *PlanCache) label(vl *ViewLabel) *planLabel {
	if pc.lastVL == vl {
		return pc.last
	}
	pl, ok := pc.labels[vl]
	if !ok {
		pl = new(planLabel)
		if pc.labels == nil {
			pc.labels = map[*ViewLabel]*planLabel{}
		}
		pc.labels[vl] = pl
	}
	pc.lastVL, pc.last = vl, pl
	return pl
}

// edgesSlot returns the cache slot of production k's edge matrices. k must
// be a valid production of vl's specification.
func (pl *planLabel) edgesSlot(vl *ViewLabel, k int) **prodEdges {
	if pl.edges == nil {
		pl.edges = make([]*prodEdges, len(vl.included))
	}
	return &pl.edges[k]
}

// chainSlot returns the cache slot of the recursion chain of cycle s (1-based)
// at normalized offset t in [1, cycle length].
func (pl *planLabel) chainSlot(vl *ViewLabel, s, t int, outputs bool) **recChain {
	side := sideOf(outputs)
	if pl.chains[side] == nil {
		pl.chains[side] = make([][]*recChain, len(vl.scheme.Cycles))
	}
	row := pl.chains[side][s-1]
	if row == nil {
		row = make([]*recChain, vl.scheme.Cycles[s-1].Len())
		pl.chains[side][s-1] = row
	}
	return &row[t-1]
}

// node returns the cached state of an owner instance of idx, which must be
// the plan's index.
func (pl *planLabel) node(idx *ItemIndex, node int32) *planNode {
	if pl.nodes == nil {
		pl.nodes = make([]planNode, len(idx.paths))
	}
	return &pl.nodes[node]
}
