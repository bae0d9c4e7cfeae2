package core

import (
	"fmt"

	"repro/internal/boolmat"
	"repro/internal/view"
	"repro/internal/workflow"
)

// FrozenChain is the serializable form of one recursion cache: the prefix
// products along a cycle and the eventually-periodic powers of the full-turn
// product (Section 4.4.3).
type FrozenChain struct {
	Prefixes  []*boolmat.Matrix
	Preperiod int
	Period    int
	Powers    []*boolmat.Matrix
}

// FrozenLabel is the construction-time state of a ViewLabel in a
// serializable form: everything LabelView computes, nothing it derives
// cheaply from the view itself. Freeze produces one; Scheme.RestoreView
// validates one and turns it back into a servable label. The matrices are
// shared with the label that produced them (view labels are read-only after
// construction), so a FrozenLabel must not be mutated.
type FrozenLabel struct {
	Variant Variant

	// Start is λ*(S), the induced dependency matrix of the start module.
	Start *boolmat.Matrix
	// Full is the full dependency assignment λ*′ of the view.
	Full workflow.DependencyAssignment

	// Materialized reachability functions (VariantDefault and
	// VariantQueryEfficient; nil for VariantSpaceEfficient).
	IMat map[[2]int]*boolmat.Matrix
	OMat map[[2]int]*boolmat.Matrix
	ZMat map[[3]int]*boolmat.Matrix

	// Recursion caches (VariantQueryEfficient only), keyed by (cycle index,
	// starting offset).
	InRec  map[[2]int]*FrozenChain
	OutRec map[[2]int]*FrozenChain
}

// Freeze exports the label's frozen state for persistence. The returned
// structure shares the label's matrices and must be treated as read-only.
func (vl *ViewLabel) Freeze() *FrozenLabel {
	f := &FrozenLabel{
		Variant: vl.variant,
		Start:   vl.start,
		Full:    vl.full,
		IMat:    vl.iMat,
		OMat:    vl.oMat,
		ZMat:    vl.zMat,
	}
	freezeChains := func(src map[[2]int]*recChain) map[[2]int]*FrozenChain {
		if src == nil {
			return nil
		}
		out := make(map[[2]int]*FrozenChain, len(src))
		for key, rc := range src {
			out[key] = &FrozenChain{
				Prefixes:  rc.prefixes,
				Preperiod: rc.period.Preperiod,
				Period:    rc.period.Period,
				Powers:    rc.period.Powers,
			}
		}
		return out
	}
	f.InRec = freezeChains(vl.inRec)
	f.OutRec = freezeChains(vl.outRec)
	return f
}

// RestoreView rebuilds a ViewLabel from its frozen state without relabeling
// the view. The frozen state is untrusted input (it typically arrives from
// disk): every matrix dimension is checked against the scheme's
// specification and every production, node and cycle index against its real
// range, so a snapshot that passes RestoreView can be served without the
// decode path ever indexing out of bounds. Structural damage yields an
// error, never a panic.
//
//fvlvet:viewlabel-ctor
func (s *Scheme) RestoreView(v *view.View, f *FrozenLabel) (*ViewLabel, error) {
	if v == nil || f == nil {
		return nil, fmt.Errorf("core: RestoreView requires a view and a frozen label")
	}
	if v.Spec != s.Spec {
		return nil, fmt.Errorf("core: view %q is defined over a different specification", v.Name)
	}
	switch f.Variant {
	case VariantSpaceEfficient, VariantDefault, VariantQueryEfficient:
	default:
		return nil, fmt.Errorf("core: frozen label for view %q has unknown variant %d", v.Name, int(f.Variant))
	}

	g := s.Spec.Grammar
	vl := &ViewLabel{
		scheme:   s,
		view:     v,
		variant:  f.Variant,
		included: includedProductions(v),
	}

	// λ*(S): the matrix the start-module cases of Algorithm 2 index directly.
	start, ok := g.Modules[g.Start]
	if !ok {
		return nil, fmt.Errorf("core: specification has no start module %q", g.Start)
	}
	if err := checkMatrixDims("λ*(S)", v, f.Start, start.In, start.Out); err != nil {
		return nil, err
	}
	vl.start = f.Start

	// λ*′: every matrix must belong to a declared module with port-count
	// dimensions (the space-efficient graph-search path feeds these straight
	// into closures), and every module reachable in the view must be covered
	// (Lemma 1 guarantees the genuine assignment is total over them) — a
	// gutted assignment would otherwise pass load-time validation and fail
	// on every query instead.
	for name, m := range f.Full {
		mod, ok := g.Modules[name]
		if !ok {
			return nil, fmt.Errorf("core: frozen label for view %q assigns dependencies to undeclared module %q", v.Name, name)
		}
		if err := checkMatrixDims(fmt.Sprintf("λ*′(%s)", name), v, m, mod.In, mod.Out); err != nil {
			return nil, err
		}
	}
	for name := range v.ReachableModules() {
		if _, ok := f.Full[name]; !ok {
			return nil, fmt.Errorf("core: frozen label for view %q: λ*′ does not cover reachable module %q", v.Name, name)
		}
	}
	vl.full = f.Full

	hasMats := f.IMat != nil || f.OMat != nil || f.ZMat != nil
	hasRec := f.InRec != nil || f.OutRec != nil
	switch f.Variant {
	case VariantSpaceEfficient:
		if hasMats || hasRec {
			return nil, fmt.Errorf("core: space-efficient frozen label for view %q carries materialized state", v.Name)
		}
		return vl, nil
	case VariantDefault:
		if hasRec {
			return nil, fmt.Errorf("core: default-variant frozen label for view %q carries recursion caches", v.Name)
		}
	}
	if f.IMat == nil || f.OMat == nil || f.ZMat == nil {
		return nil, fmt.Errorf("core: %v frozen label for view %q lacks materialized matrices", f.Variant, v.Name)
	}

	// I, O and Z: keys must name an included production and an in-range node;
	// dimensions are fixed by the production's modules.
	for key, m := range f.IMat {
		lhs, node, err := s.productionModules(vl, v, key[0], key[1])
		if err != nil {
			return nil, err
		}
		if err := checkMatrixDims(fmt.Sprintf("I(%d,%d)", key[0], key[1]), v, m, lhs.In, node.In); err != nil {
			return nil, err
		}
	}
	for key, m := range f.OMat {
		lhs, node, err := s.productionModules(vl, v, key[0], key[1])
		if err != nil {
			return nil, err
		}
		if err := checkMatrixDims(fmt.Sprintf("O(%d,%d)", key[0], key[1]), v, m, lhs.Out, node.Out); err != nil {
			return nil, err
		}
	}
	for key, m := range f.ZMat {
		k, i, j := key[0], key[1], key[2]
		_, ni, err := s.productionModules(vl, v, k, i)
		if err != nil {
			return nil, err
		}
		_, nj, err := s.productionModules(vl, v, k, j)
		if err != nil {
			return nil, err
		}
		if i >= j {
			return nil, fmt.Errorf("core: frozen label for view %q stores Z(%d,%d,%d) with i >= j", v.Name, k, i, j)
		}
		if err := checkMatrixDims(fmt.Sprintf("Z(%d,%d,%d)", k, i, j), v, m, ni.Out, nj.In); err != nil {
			return nil, err
		}
	}
	vl.iMat, vl.oMat, vl.zMat = f.IMat, f.OMat, f.ZMat

	if f.Variant == VariantDefault {
		return vl, nil
	}
	if f.InRec == nil || f.OutRec == nil {
		return nil, fmt.Errorf("core: query-efficient frozen label for view %q lacks recursion caches", v.Name)
	}
	vl.inRec = map[[2]int]*recChain{}
	vl.outRec = map[[2]int]*recChain{}
	for key, fc := range f.InRec {
		rc, err := s.restoreChain(vl, v, key, fc, false)
		if err != nil {
			return nil, err
		}
		vl.inRec[key] = rc
	}
	for key, fc := range f.OutRec {
		rc, err := s.restoreChain(vl, v, key, fc, true)
		if err != nil {
			return nil, err
		}
		vl.outRec[key] = rc
	}
	return vl, nil
}

// productionModules resolves the (k, i) key of a materialized matrix to the
// production's left-hand-side module and its i-th right-hand-side node,
// rejecting out-of-range or not-included keys.
func (s *Scheme) productionModules(vl *ViewLabel, v *view.View, k, i int) (lhs, node workflow.Module, err error) {
	g := s.Spec.Grammar
	if k < 1 || k > len(g.Productions) {
		return lhs, node, fmt.Errorf("core: frozen label for view %q references production %d of %d", v.Name, k, len(g.Productions))
	}
	if !vl.includes(k) {
		return lhs, node, fmt.Errorf("core: frozen label for view %q materializes production %d, which the view excludes", v.Name, k)
	}
	p := g.Productions[k-1]
	if i < 1 || i > len(p.RHS.Nodes) {
		return lhs, node, fmt.Errorf("core: frozen label for view %q references node %d of production %d (%d nodes)", v.Name, i, k, len(p.RHS.Nodes))
	}
	return g.Modules[p.LHS], g.Modules[p.RHS.Nodes[i-1]], nil
}

// restoreChain validates one frozen recursion cache against the cycle it
// claims to belong to: the key must name a cycle of the scheme that survives
// in the view, the prefix products must cover exactly one full turn with the
// dimensions the cycle's modules dictate, and the periodic powers must form
// a complete table for PowerPeriod.Power's constant-time lookup.
func (s *Scheme) restoreChain(vl *ViewLabel, v *view.View, key [2]int, fc *FrozenChain, outputs bool) (*recChain, error) {
	kind := "in"
	if outputs {
		kind = "out"
	}
	fail := func(format string, args ...any) (*recChain, error) {
		return nil, fmt.Errorf("core: frozen label for view %q, %s-chain (%d,%d): %s", v.Name, kind, key[0], key[1], fmt.Sprintf(format, args...))
	}
	if fc == nil {
		return fail("nil chain")
	}
	c, err := s.Cycle(key[0])
	if err != nil {
		return fail("no cycle %d", key[0])
	}
	if key[1] < 1 || key[1] > c.Len() {
		return fail("offset out of range [1, %d]", c.Len())
	}
	if !vl.cycleIncluded(c) {
		return fail("cycle %d is not fully included in the view", key[0])
	}
	if len(fc.Prefixes) != c.Len()+1 {
		return fail("%d prefix products, want %d", len(fc.Prefixes), c.Len()+1)
	}
	dimAt := func(offset int) (int, error) {
		mod, err := s.moduleAtCycleOffset(key[0], offset)
		if err != nil {
			return 0, err
		}
		if outputs {
			return mod.Out, nil
		}
		return mod.In, nil
	}
	dim0, err := dimAt(key[1])
	if err != nil {
		return fail("%v", err)
	}
	for r, m := range fc.Prefixes {
		dimR, err := dimAt(key[1] + r)
		if err != nil {
			return fail("%v", err)
		}
		if err := checkMatrixDims(fmt.Sprintf("prefix %d", r), v, m, dim0, dimR); err != nil {
			return fail("%v", err)
		}
	}
	if fc.Preperiod < 1 || fc.Period < 1 {
		return fail("preperiod %d / period %d must both be >= 1", fc.Preperiod, fc.Period)
	}
	if len(fc.Powers) != fc.Preperiod+fc.Period-1 {
		return fail("%d cached powers, want preperiod+period-1 = %d", len(fc.Powers), fc.Preperiod+fc.Period-1)
	}
	for a, m := range fc.Powers {
		if err := checkMatrixDims(fmt.Sprintf("power %d", a+1), v, m, dim0, dim0); err != nil {
			return fail("%v", err)
		}
	}
	return &recChain{
		prefixes: fc.Prefixes,
		period:   &boolmat.PowerPeriod{Preperiod: fc.Preperiod, Period: fc.Period, Powers: fc.Powers},
	}, nil
}

func checkMatrixDims(what string, v *view.View, m *boolmat.Matrix, rows, cols int) error {
	if m == nil {
		return fmt.Errorf("core: frozen label for view %q: %s is nil", v.Name, what)
	}
	if m.Rows() != rows || m.Cols() != cols {
		return fmt.Errorf("core: frozen label for view %q: %s is %dx%d, want %dx%d", v.Name, what, m.Rows(), m.Cols(), rows, cols)
	}
	return nil
}
