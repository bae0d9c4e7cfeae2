package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/boolmat"
	"repro/internal/faults"
)

// This file implements the set-oriented scans behind the query planner
// (internal/query): depsRow and revDepsRow answer a whole Deps(x)/RevDeps(x)
// query as one bitset row over an ItemIndex, instead of one point decode per
// candidate item. The key observation is the one Algorithm 2 is built on: the
// decoding matrix depends only on the two labels' tree-node paths, never on
// the ports. Grouping candidates by the instance owning their ports
// (ItemIndex) reduces a set query to one vector per group: the row or column
// of the group's decoding matrix at the target's port, scattered onto the
// members' ports.
//
// That vector is what a point query reads one bit of: scans and point
// queries share one per-candidate body, candidateRow, which reads it off the
// case's chain one vector product per factor and never multiplies the matrix
// out. A scan visits only the groups visible in the view, in path order
// (scanOrder), so the groups below one subtree of the target's path come one
// after another. They share the LCA depth and the edges there, and with them
// every factor but their own suffix product: a one-entry memo (tailMemo)
// keeps the target's side of the chain as one vector, and each further group
// of the run costs one vector × suffix product.
//
// Set semantics versus point semantics: a point query against an invisible or
// unknown *target* errors, and so do the scans (ErrHiddenItem /
// ErrUnknownItem). A point query against a malformed or invisible *candidate*
// also errors — in a set answer such candidates are simply excluded, which is
// the only coherent reading of "the set of items y for which DependsOn
// answers (true, nil)". The differential oracle test in fvl pins this down.

// suffixProduct returns the I- or O-matrix chain product over path[from:],
// served from the plan cache when the context has one attached for idx. Cache
// hits return a matrix that is NOT in the scratch arena (it survives rewind);
// misses compute into scratch and clone into the cache.
func (vl *ViewLabel) suffixProduct(qc *queryCtx, idx *ItemIndex, node int32, path []EdgeLabel, from int, outputs bool) (*boolmat.Matrix, error) {
	pc := qc.plan
	if pc == nil || idx == nil || pc.idx != idx || node < 0 {
		return vl.plainProduct(qc, path, from, outputs)
	}
	pn, side := pc.label(vl).node(idx, node), sideOf(outputs)
	if pn.prods[side] == nil {
		pn.prods[side] = make([]*boolmat.Matrix, len(path)+1)
	}
	if m := pn.prods[side][from]; m != nil {
		return m, nil
	}
	m, err := vl.plainProduct(qc, path, from, outputs)
	if err != nil {
		return nil, err
	}
	pn.prods[side][from] = m.Clone()
	return pn.prods[side][from], nil
}

// nodeVisible is pathVisible over an owner instance's path, cached per plan.
// A node of -1 (absent port side) is vacuously visible.
func (vl *ViewLabel) nodeVisible(qc *queryCtx, idx *ItemIndex, node int32) bool {
	if node < 0 {
		return true
	}
	pc := qc.plan
	if pc == nil || pc.idx != idx {
		return vl.pathVisible(idx.path(node))
	}
	pn := pc.label(vl).node(idx, node)
	if pn.visible == visUnknown {
		pn.visible = visNo
		if vl.pathVisible(idx.path(node)) {
			pn.visible = visYes
		}
	}
	return pn.visible == visYes
}

// visibleRow returns the 1×(idx.Items()+1) bitset row of the item IDs visible
// in vl's view, cached per plan. Callers must treat the result as read-only.
func (vl *ViewLabel) visibleRow(qc *queryCtx, idx *ItemIndex) *boolmat.Matrix {
	pc := qc.plan
	if pc != nil && pc.idx == idx {
		if m := pc.label(vl).visRow; m != nil {
			return m
		}
	}
	row := boolmat.New(1, idx.n+1)
	for id := 1; id <= idx.n; id++ {
		x, ok := idx.resolve(id)
		if ok && vl.nodeVisible(qc, idx, x.Out.Owner()) && vl.nodeVisible(qc, idx, x.In.Owner()) {
			row.Set(0, id, true)
		}
	}
	if pc != nil && pc.idx == idx {
		pc.label(vl).visRow = row
	}
	return row
}

// scanOrder returns the positions of the groups of one side of idx (the
// producing side with outputs) whose owners are visible in vl's view, sorted
// by the owners' paths, so the groups below one tree node form a contiguous
// run. With a plan for idx attached, the list is built once, at its exact
// size, and kept in the plan.
func (vl *ViewLabel) scanOrder(qc *queryCtx, idx *ItemIndex, outputs bool) []int32 {
	var pl *planLabel
	if pc := qc.plan; pc != nil && pc.idx == idx {
		pl = pc.label(vl)
		if order := pl.groups[sideOf(outputs)]; order != nil {
			return order
		}
	}
	t := idx.side(outputs)
	n := 0
	for _, g := range t.groups {
		if vl.nodeVisible(qc, idx, g.node) {
			n++
		}
	}
	order := make([]int32, 0, n)
	for i, g := range t.groups {
		if vl.nodeVisible(qc, idx, g.node) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(comparePaths(idx.path(t.groups[a].node), idx.path(t.groups[b].node)), cmp.Compare(a, b))
	})
	if pl != nil {
		pl.groups[sideOf(outputs)] = order
	}
	return order
}

// scatter sets the answer bit of every member whose port is set in vec, the
// group's row or column of its decoding matrix as a 1-row vector indexed by
// port, and whose other port's owner is visible. Out-of-range ports exclude
// exactly the members whose point queries fail on the same vector.
func (vl *ViewLabel) scatter(qc *queryCtx, idx *ItemIndex, row, vec *boolmat.Matrix, members []member) {
	for _, mb := range members {
		p := int(mb.port)
		if p >= 0 && p < vec.Cols() && vec.Get(0, p) && vl.nodeVisible(qc, idx, mb.visNode) {
			row.Set(0, int(mb.item), true)
		}
	}
}

// tailKey is what a group's chain tail depends on besides the scan's
// target: the LCA depth and the group path's edges that mainChain reads for
// the factors between the two suffix products — the one at the LCA and, in
// case 2b only, the next one. The group's own suffix product, the chain's
// last factor, is not part of the tail.
type tailKey struct {
	shared    int
	div, next EdgeLabel
}

// tailKeyOf returns the tail key of a group's chain ch; group is the group's
// path.
func tailKeyOf(ch *decodeChain, group []EdgeLabel) tailKey {
	key := tailKey{shared: ch.shared, div: group[ch.shared]}
	if ch.recursive && ch.shared+1 < len(group) {
		key.next = group[ch.shared+1]
	}
	return key
}

// tailMemo is a one-entry memo of rowTail: the target's side of the last
// candidate's chain as one vector, or the error building it. Both are
// determined by the key, so a group with the same key only multiplies the
// vector by its own suffix product. The vector and whatever it was built
// from live in the scratch slots below mark; a scan rewinds to mark after
// each group. A point query starts from an empty memo.
type tailMemo struct {
	mark int
	ok   bool
	key  tailKey
	w    *boolmat.Matrix
	err  error
}

// depsRow answers Deps(itemID) = {y : DependsOn(y, itemID) = (true, nil)} as
// a bitset row: the target is d2 of every point query, candidates are d1.
func (vl *ViewLabel) depsRow(qc *queryCtx, idx *ItemIndex, itemID int) (*boolmat.Matrix, error) {
	return vl.scanRow(qc, idx, itemID, true)
}

// revDepsRow answers RevDeps(itemID) = {y : DependsOn(itemID, y) = (true,
// nil)} as a bitset row: the target is d1 of every point query.
func (vl *ViewLabel) revDepsRow(qc *queryCtx, idx *ItemIndex, itemID int) (*boolmat.Matrix, error) {
	return vl.scanRow(qc, idx, itemID, false)
}

// scanRow is depsRow (deps) and revDepsRow, which mirror each other. A Deps
// scan groups its candidates by producing port and meets the target at its
// consuming port (near), a RevDeps scan the other way round; far is the
// target's other port.
func (vl *ViewLabel) scanRow(qc *queryCtx, idx *ItemIndex, itemID int, deps bool) (*boolmat.Matrix, error) {
	qc.begin()
	x, ok := idx.resolve(itemID)
	if !ok {
		return nil, fmt.Errorf("core: item %d has no label in the index: %w", itemID, faults.ErrUnknownItem)
	}
	if !vl.nodeVisible(qc, idx, x.Out.Owner()) || !vl.nodeVisible(qc, idx, x.In.Owner()) {
		return nil, fmt.Errorf("core: item %d is not visible in view %q: %w", itemID, vl.view.Name, faults.ErrHiddenItem)
	}
	near, far, ends := x.In, x.Out, idx.initials
	if !deps {
		near, far, ends = x.Out, x.In, idx.finals
	}
	row := boolmat.New(1, idx.n+1)
	if !far.Present() {
		// Case I: nothing flows into an initial input, and a final output
		// has no dependents.
		return row, nil
	}

	// Boundary candidates (initial inputs of a Deps scan, final outputs of a
	// RevDeps one; the other boundary never appears, by Case I) share one
	// vector. Intermediate candidates get one per visible group.
	var memo tailMemo
	if len(ends) > 0 {
		if vec, err := vl.candidateRow(qc, idx, &memo, &near, &far, &PortLabel{}, deps); err == nil {
			vl.scatter(qc, idx, row, vec, ends)
		}
		qc.rewind(0)
	}
	groups := idx.side(deps)
	for _, g := range vl.scanOrder(qc, idx, deps) {
		node, members := groups.group(int(g))
		cand := PortLabel{Path: idx.path(node), owner: node + 1}
		if vec, err := vl.candidateRow(qc, idx, &memo, &near, &far, &cand, deps); err == nil && vec != nil {
			vl.scatter(qc, idx, row, vec, members)
		}
		qc.rewind(memo.mark)
	}
	return row, nil
}
