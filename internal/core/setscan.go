package core

import (
	"fmt"

	"repro/internal/boolmat"
	"repro/internal/faults"
)

// This file implements the set-oriented scans behind the query planner
// (internal/query): depsRow and revDepsRow answer a whole Deps(x)/RevDeps(x)
// query as one bitset row over an ItemIndex, instead of one point decode per
// candidate item. The key observation is the one Algorithm 2 is built on: the
// decoding matrix depends only on the two labels' tree-node paths, never on
// the ports. Grouping candidates by the instance owning their ports
// (ItemIndex) therefore reduces a set query to one matrix chain per group
// plus a row or column extraction per member.
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

// scatter transfers one group's decode-matrix bits into the answer row: for
// every visible member whose matrix bit at (port, target) — or (target, port)
// when memberRows is false — is set, the member's item bit is set. Out-of-
// range ports exclude exactly the members whose point queries would have
// errored on safeGet.
func (vl *ViewLabel) scatter(qc *queryCtx, idx *ItemIndex, row, m *boolmat.Matrix, members []member, target int, memberRows bool) {
	if target < 0 {
		return
	}
	if memberRows {
		if target >= m.Cols() {
			return
		}
		for _, mb := range members {
			p := int(mb.port)
			if p >= 0 && p < m.Rows() && vl.nodeVisible(qc, idx, mb.visNode) && m.Get(p, target) {
				row.Set(0, int(mb.item), true)
			}
		}
		return
	}
	if target >= m.Rows() {
		return
	}
	for _, mb := range members {
		p := int(mb.port)
		if p >= 0 && p < m.Cols() && vl.nodeVisible(qc, idx, mb.visNode) && m.Get(target, p) {
			row.Set(0, int(mb.item), true)
		}
	}
}

// depsRow answers Deps(itemID) = {y : DependsOn(y, itemID) = (true, nil)} as
// a bitset row: the target is d2 of every point query, candidates are d1.
func (vl *ViewLabel) depsRow(qc *queryCtx, idx *ItemIndex, itemID int) (*boolmat.Matrix, error) {
	qc.begin()
	x, ok := idx.resolve(itemID)
	if !ok {
		return nil, fmt.Errorf("core: item %d has no label in the index: %w", itemID, faults.ErrUnknownItem)
	}
	if !vl.nodeVisible(qc, idx, x.Out.Owner()) || !vl.nodeVisible(qc, idx, x.In.Owner()) {
		return nil, fmt.Errorf("core: item %d is not visible in view %q: %w", itemID, vl.view.Name, faults.ErrHiddenItem)
	}
	row := boolmat.New(1, idx.n+1)
	if !x.Out.Present() {
		// Case I: nothing flows into an initial input.
		return row, nil
	}

	// Initial-input candidates: Case II (target is a final output, λ*(S)
	// answers directly) or Case III (one I-chain along the target's consuming
	// path answers every initial at once).
	if len(idx.initials) > 0 {
		var m *boolmat.Matrix
		var err error
		var target int
		if !x.In.Present() {
			m, target = vl.start, int(x.Out.Port)
		} else {
			m, err = vl.suffixProduct(qc, idx, x.In.Owner(), x.In.Path, 0, false)
			target = int(x.In.Port)
		}
		if err == nil {
			vl.scatter(qc, idx, row, m, idx.initials, target, true)
		}
		qc.rewind()
	}

	// Final-output candidates never appear: Case I (d1 has no In port).

	// Intermediate candidates, one decode per producing-port group: Case IV
	// when the target is a final output, the main cases otherwise.
	for i := range idx.src.groups {
		node, members := idx.src.group(i)
		if !vl.nodeVisible(qc, idx, node) {
			continue
		}
		var m *boolmat.Matrix
		var err error
		var target int
		memberRows := true
		if !x.In.Present() {
			m, err = vl.suffixProduct(qc, idx, node, idx.path(node), 0, true)
			target, memberRows = int(x.Out.Port), false
		} else {
			m, err = vl.decodeMainMatrix(qc, idx, node, idx.path(node), x.In.Owner(), x.In.Path)
			target = int(x.In.Port)
		}
		if err == nil && m != nil {
			vl.scatter(qc, idx, row, m, members, target, memberRows)
		}
		qc.rewind()
	}
	return row, nil
}

// revDepsRow answers RevDeps(itemID) = {y : DependsOn(itemID, y) = (true,
// nil)} as a bitset row: the target is d1 of every point query.
func (vl *ViewLabel) revDepsRow(qc *queryCtx, idx *ItemIndex, itemID int) (*boolmat.Matrix, error) {
	qc.begin()
	x, ok := idx.resolve(itemID)
	if !ok {
		return nil, fmt.Errorf("core: item %d has no label in the index: %w", itemID, faults.ErrUnknownItem)
	}
	if !vl.nodeVisible(qc, idx, x.Out.Owner()) || !vl.nodeVisible(qc, idx, x.In.Owner()) {
		return nil, fmt.Errorf("core: item %d is not visible in view %q: %w", itemID, vl.view.Name, faults.ErrHiddenItem)
	}
	row := boolmat.New(1, idx.n+1)
	if !x.In.Present() {
		// Case I: a final output has no dependents.
		return row, nil
	}

	// Final-output candidates: Case II (source is an initial input) or Case
	// IV (one O-chain along the source's producing path).
	if len(idx.finals) > 0 {
		var m *boolmat.Matrix
		var err error
		var target int
		memberRows := false
		if !x.Out.Present() {
			m, target = vl.start, int(x.In.Port)
		} else {
			m, err = vl.suffixProduct(qc, idx, x.Out.Owner(), x.Out.Path, 0, true)
			target, memberRows = int(x.Out.Port), true
		}
		if err == nil {
			vl.scatter(qc, idx, row, m, idx.finals, target, memberRows)
		}
		qc.rewind()
	}

	// Initial-input candidates never appear: Case I (d2 has no Out port).

	// Intermediate candidates, one decode per consuming-port group: Case III
	// when the source is an initial input, the main cases otherwise.
	for i := range idx.dst.groups {
		node, members := idx.dst.group(i)
		if !vl.nodeVisible(qc, idx, node) {
			continue
		}
		var m *boolmat.Matrix
		var err error
		var target int
		if !x.Out.Present() {
			m, err = vl.suffixProduct(qc, idx, node, idx.path(node), 0, false)
			target = int(x.In.Port)
		} else {
			m, err = vl.decodeMainMatrix(qc, idx, x.Out.Owner(), x.Out.Path, node, idx.path(node))
			target = int(x.Out.Port)
		}
		if err == nil && m != nil {
			vl.scatter(qc, idx, row, m, members, target, false)
		}
		qc.rewind()
	}
	return row, nil
}
