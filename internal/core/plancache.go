package core

import (
	"math"
	"slices"

	"repro/internal/boolmat"
)

// PlanCache is the plan-scoped counterpart of the per-query closure memo: one
// cache shared by every query a plan (or a worker's whole batch) executes, so
// a plan never recomputes an I, O or Z matrix, a recursion chain, a chain
// product, or a path-visibility check it has already paid for. It is keyed to
// one ItemIndex — i.e. one pinned step prefix (epoch) of one run — because
// its cached products and visibility bits are keyed by the instances and
// item rows of that index. The path order the scans walk is not the plan's:
// the index lineage keeps it (groupTable.order).
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

// planLabel is a plan's cached state for one view label. Everything it holds
// for an index's owner instances is pointer-free: a visibility byte each,
// and the suffix products as words (prodStore). The order in which the
// scans visit the instances is the index's, not the plan's.
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

	// vis caches pathVisible of each owner instance's path, indexed by the
	// instances of the plan's ItemIndex: visUnknown until first computed.
	// It stays nil for index-free plans.
	vis []int8

	// prods caches the chain products along the owner instances' path
	// suffixes that cost a multiplication.
	prods prodStore

	// visRow is the 1×(items+1) bitset row of item IDs visible in the
	// label's view.
	visRow *boolmat.Matrix
}

// prodStore holds one plan label's suffix products (suffixProduct) in
// pointer-free tables, so no product is a heap object of its own and the
// garbage collector never scans them. A product is read back through the
// query context's matrix header over its words (boolmat.Over).
type prodStore struct {
	// runs is indexed by owner instance: 1 + the start of the instance's run
	// in slots, 0 until its first product. A run has one slot per side and
	// path suffix, [side][from] with from in 0..len(path).
	runs []int32

	// slots holds the runs: 1 + the offset of a product's header in words,
	// 0 until it is cached.
	slots []int32

	// words holds each product as a header word, rows<<32 | cols, followed
	// by its packed rows.
	words []uint64
}

// slot returns the position in slots of the product of the owner instance
// node over path[from:] on one side, where path is the instance's path in
// idx, allocating the instance's run on first use; -1 when from is past
// the path.
func (ps *prodStore) slot(idx *ItemIndex, node int32, side, from int) int {
	n := len(idx.path(node)) + 1
	if from >= n {
		return -1
	}
	if ps.runs == nil {
		ps.runs = make([]int32, len(idx.paths))
	}
	if ps.runs[node] == 0 {
		at := len(ps.slots)
		ps.runs[node] = int32(at) + 1
		ps.slots = slices.Grow(ps.slots, 2*n)[:at+2*n]
		clear(ps.slots[at:])
	}
	return int(ps.runs[node]) - 1 + side*n + from
}

// get reads the product cached in slot i into the header h, or returns nil
// when the slot holds none.
func (ps *prodStore) get(i int, h *boolmat.Matrix) *boolmat.Matrix {
	at := ps.slots[i]
	if at == 0 {
		return nil
	}
	hdr := ps.words[at-1]
	return boolmat.Over(h, int(hdr>>32), int(uint32(hdr)), ps.words[at:])
}

// put caches m in slot i, unless the words would outgrow an int32 offset.
func (ps *prodStore) put(i int, m *boolmat.Matrix) {
	if len(ps.words) >= math.MaxInt32-1-m.Rows()*(m.Cols()+63)/64 {
		return
	}
	ps.slots[i] = int32(len(ps.words)) + 1
	ps.words = m.AppendWords(append(ps.words, uint64(m.Rows())<<32|uint64(m.Cols())))
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

// visTable returns the visibility cache, indexed by the owner instances of
// idx, which must be the plan's index.
func (pl *planLabel) visTable(idx *ItemIndex) []int8 {
	if pl.vis == nil {
		pl.vis = make([]int8, len(idx.paths))
	}
	return pl.vis
}
