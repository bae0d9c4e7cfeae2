package core

import (
	"fmt"
	"math"

	"repro/internal/boolmat"
	"repro/internal/faults"
	"repro/internal/prodgraph"
	"repro/internal/safety"
	"repro/internal/view"
	"repro/internal/workflow"
)

// Variant selects how much reachability information a view label
// materializes, trading view-labeling overhead against query time
// (Sections 4.3 and 4.4.3 of the paper, compared experimentally in
// Section 6.3).
type Variant int

const (
	// VariantSpaceEfficient stores only the full dependency assignment λ*′ of
	// the view; the reachability matrices I, O and Z are recomputed by graph
	// search over the view of the specification at query time.
	VariantSpaceEfficient Variant = iota
	// VariantDefault materializes all reachability matrices for I, O and Z;
	// recursion chains are resolved at query time by divide-and-conquer
	// matrix powers.
	VariantDefault
	// VariantQueryEfficient additionally materializes, for every recursion of
	// the view, the prefix products and the eventually-periodic powers of the
	// cycle matrix, so recursion chains are resolved in constant time.
	VariantQueryEfficient
)

// String names the variant as used in the experiment reports.
func (v Variant) String() string {
	switch v {
	case VariantSpaceEfficient:
		return "space-efficient"
	case VariantDefault:
		return "default"
	case VariantQueryEfficient:
		return "query-efficient"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// recChain caches, for one cycle of the production graph and one starting
// offset, the prefix products of the I (or O) matrices along the cycle and
// the eventually-periodic powers of the full-cycle product. With it, the
// product of any number of consecutive cycle matrices is available in
// constant time (Section 4.4.3).
type recChain struct {
	prefixes []*boolmat.Matrix // prefixes[r] = product of the first r matrices
	period   *boolmat.PowerPeriod
}

// product returns the product of the first n >= 0 matrices of the chain.
// The result is either a matrix cached in the chain or a scratch slot of
// the query context (for the one combination — full turns plus a non-zero
// remainder — that needs an actual multiplication).
func (rc *recChain) product(qc *queryCtx, n int) *boolmat.Matrix {
	l := len(rc.prefixes) - 1 // cycle length
	if n < l {
		return rc.prefixes[n]
	}
	q, r := n/l, n%l
	x := rc.period.Power(q)
	if r == 0 {
		return x
	}
	i := qc.take()
	qc.scratch[i] = boolmat.MulInto(qc.scratch[i], x, rc.prefixes[r])
	return qc.scratch[i]
}

// ViewLabel is φv(U): the static label of one safe view, consisting of the
// induced dependencies λ*(S) of the start module and the reachability
// functions I, O and Z of Section 4.3 (materialized or not, depending on the
// variant). A view label is combined with two data labels by DependsOn to
// answer reachability queries over the view.
//
// A view label is strictly read-only after construction: all per-query
// mutable state (the closure cache of the graph-search path and the scratch
// matrices of the decoder) lives in a queryCtx threaded through the decode
// path, so one label can serve any number of concurrent queries.
type ViewLabel struct {
	scheme  *Scheme
	view    *view.View
	variant Variant

	start    *boolmat.Matrix // λ*(S)
	included []bool          // included[k]: production k (1-based) is in G_∆′

	// Materialized functions (VariantDefault and VariantQueryEfficient).
	iMat map[[2]int]*boolmat.Matrix
	oMat map[[2]int]*boolmat.Matrix
	zMat map[[3]int]*boolmat.Matrix

	// Full dependency assignment λ*′ (always kept; it is the entire payload of
	// VariantSpaceEfficient and the fallback for on-the-fly computation).
	full workflow.DependencyAssignment

	// Per-(cycle, offset) recursion caches (VariantQueryEfficient only).
	inRec  map[[2]int]*recChain
	outRec map[[2]int]*recChain

	// matrixFree enables the short-circuited decoding of Section 6.4
	// (Matrix-Free FVL), which avoids multiplying complete or empty matrices.
	matrixFree bool
}

// WithMatrixFree returns a copy of the view label whose decoding
// short-circuits products involving complete or empty reachability matrices
// (the Matrix-Free FVL of Section 6.4). The optimization is always correct;
// it pays off on coarse-grained views, where most matrices are complete.
//
// The copy is shallow: it shares the materialized matrices and recursion
// caches with the original, which is safe because a view label carries no
// mutable query state — the copy and the original can answer queries
// concurrently.
func (vl *ViewLabel) WithMatrixFree() *ViewLabel {
	c := *vl
	c.matrixFree = true
	return &c
}

// LabelView computes φv(U) for a safe view over the scheme's specification
// (Section 4.3). It fails when the view belongs to a different specification
// or is unsafe. It is LabelViewWithin with no practical budget.
func (s *Scheme) LabelView(v *view.View, variant Variant) (*ViewLabel, error) {
	unbounded := math.MaxInt
	return s.LabelViewWithin(v, variant, &unbounded)
}

// LabelViewWithin is LabelView for a view that arrives as untrusted input,
// under an allocation budget of *budget bytes. Before the safety analysis
// runs, the view's declared port counts bound what the labeling allocates
// (labelBytesBound), and a view bounded above what is left of the budget
// fails without doing the work. The bound is charged against *budget, and so
// is each recursion cache's power table, which FindPeriod caps at what is
// left then. A label that needs more fails, so the caller's total
// allocation stays within the budget it started with.
//
//fvlvet:viewlabel-ctor
func (s *Scheme) LabelViewWithin(v *view.View, variant Variant, budget *int) (*ViewLabel, error) {
	if v.Spec != s.Spec {
		return nil, fmt.Errorf("core: view %q is defined over a different specification: %w", v.Name, faults.ErrForeignLabel)
	}
	vl := &ViewLabel{
		scheme:   s,
		view:     v,
		variant:  variant,
		included: includedProductions(v),
	}
	need := vl.labelBytesBound()
	if need > float64(*budget) {
		return nil, fmt.Errorf("core: labeling view %q may allocate %.4g bytes by its declared port counts, over the %d bytes left of the budget", v.Name, need, *budget)
	}
	*budget -= int(need)
	if !v.IsSafe() {
		return nil, fmt.Errorf("core: view %q is unsafe: %w (%v)", v.Name, faults.ErrUnsafeView, v.SafetyError())
	}
	full, err := v.FullAssignment()
	if err != nil {
		return nil, err
	}
	start, err := v.StartDeps()
	if err != nil {
		return nil, err
	}
	vl.start = start.Clone()
	vl.full = full
	if variant == VariantSpaceEfficient {
		return vl, nil
	}

	closures, err := v.Closures()
	if err != nil {
		return nil, err
	}
	vl.iMat = map[[2]int]*boolmat.Matrix{}
	vl.oMat = map[[2]int]*boolmat.Matrix{}
	vl.zMat = map[[3]int]*boolmat.Matrix{}
	for k, inc := range vl.included {
		if !inc {
			continue
		}
		cl, ok := closures[k]
		if !ok {
			// The production is included but not derivable in the view; its
			// matrices are never needed by visible data labels.
			continue
		}
		pe := vl.newProdEdges(k, cl)
		for i := 1; i <= pe.n; i++ {
			vl.iMat[[2]int{k, i}] = pe.in[i-1]
			vl.oMat[[2]int{k, i}] = pe.out[i-1]
			for j := i + 1; j <= pe.n; j++ {
				vl.zMat[[3]int{k, i, j}] = pe.z(i, j)
			}
		}
	}
	if variant == VariantQueryEfficient {
		if err := vl.buildRecursionCaches(budget); err != nil {
			return nil, err
		}
	}
	return vl, nil
}

// prodEdges holds the I, O and Z matrices of one production's right-hand side
// (Section 4.3): in[i-1] is I(k, i), out[i-1] is O(k, i) and z(i, j) is
// Z(k, i, j) for i < j.
type prodEdges struct {
	n       int               // right-hand-side nodes
	in, out []*boolmat.Matrix // by 0-based node
	between []*boolmat.Matrix // Z(k, i, j) at (i-1)*n + j-1, nil for i >= j
}

// z returns Z(k, i, j) for 1 <= i < j <= n.
func (pe *prodEdges) z(i, j int) *boolmat.Matrix { return pe.between[(i-1)*pe.n+j-1] }

// newProdEdges reads every I, O and Z matrix of production k off cl, the
// port closure of k's right-hand side under λ*′.
func (vl *ViewLabel) newProdEdges(k int, cl *safety.Closure) *prodEdges {
	n := len(vl.scheme.Spec.Grammar.Productions[k-1].RHS.Nodes)
	pe := &prodEdges{
		n:       n,
		in:      make([]*boolmat.Matrix, n),
		out:     make([]*boolmat.Matrix, n),
		between: make([]*boolmat.Matrix, n*n),
	}
	for i := 0; i < n; i++ {
		pe.in[i] = cl.InputsTo(i)
		pe.out[i] = cl.OutputsTo(i)
		for j := i + 1; j < n; j++ {
			pe.between[i*n+j] = cl.Between(i, j)
		}
	}
	return pe
}

// buildRecursionCaches materializes, for every cycle of the production graph
// that survives in the view and every starting offset, the prefix products
// and the periodic powers of the I and O matrices along the cycle. The power
// tables are charged against *budget.
//
//fvlvet:viewlabel-ctor
func (vl *ViewLabel) buildRecursionCaches(budget *int) error {
	vl.inRec = map[[2]int]*recChain{}
	vl.outRec = map[[2]int]*recChain{}
	// Construction runs with its own throwaway context; the query-efficient
	// variant has its matrices materialized, so the context stays empty.
	qc := new(queryCtx)
	for _, c := range vl.scheme.Cycles {
		if !vl.cycleIncluded(c) {
			continue
		}
		for t := 1; t <= c.Len(); t++ {
			in, err := vl.buildChain(qc, c, t, false, budget)
			if err != nil {
				return err
			}
			out, err := vl.buildChain(qc, c, t, true, budget)
			if err != nil {
				return err
			}
			vl.inRec[[2]int{c.Index, t}] = in
			vl.outRec[[2]int{c.Index, t}] = out
		}
	}
	return nil
}

// includedProductions returns the membership of every production in the
// view's restricted grammar G_∆′, indexed by 1-based production number
// (entry 0 is unused).
func includedProductions(v *view.View) []bool {
	inc := make([]bool, len(v.Spec.Grammar.Productions)+1)
	for k := 1; k < len(inc); k++ {
		inc[k] = v.IncludesProduction(k)
	}
	return inc
}

// includes reports whether production k belongs to G_∆′. Data labels are
// untrusted input, so an out-of-range k is simply not included.
func (vl *ViewLabel) includes(k int) bool {
	return k > 0 && k < len(vl.included) && vl.included[k]
}

func (vl *ViewLabel) cycleIncluded(c prodgraph.Cycle) bool {
	for _, e := range c.Edges {
		if !vl.includes(e.K) {
			return false
		}
	}
	return true
}

// buildChain computes the recursion cache of cycle c at starting offset t:
// the prefix products of one full turn and the periodic powers of the
// full-turn product. The edge matrices come through qc, so on the
// graph-search path they are the attached plan's cached ones. The returned
// chain owns every matrix it holds. Its power table is charged against
// *budget.
func (vl *ViewLabel) buildChain(qc *queryCtx, c prodgraph.Cycle, t int, outputs bool, budget *int) (*recChain, error) {
	l := c.Len()
	mod, err := vl.scheme.moduleAtCycleOffset(c.Index, t)
	if err != nil {
		return nil, err
	}
	dim := mod.In
	if outputs {
		dim = mod.Out
	}
	prefixes := make([]*boolmat.Matrix, l+1)
	prefixes[0] = boolmat.Identity(dim)
	for r := 1; r <= l; r++ {
		e := c.EdgeAt(t + r - 1)
		m, err := vl.edgeIO(qc, e.K, e.I, outputs)
		if err != nil {
			return nil, err
		}
		prefixes[r] = prefixes[r-1].Mul(m)
	}
	period, err := boolmat.FindPeriod(prefixes[l], *budget)
	if err != nil {
		return nil, fmt.Errorf("core: recursion cache of cycle %d at offset %d in view %q: %w", c.Index, t, vl.view.Name, err)
	}
	*budget -= period.Bytes()
	return &recChain{prefixes: prefixes, period: period}, nil
}

// View returns the view the label was computed for.
func (vl *ViewLabel) View() *view.View { return vl.view }

// Variant returns the label's variant.
func (vl *ViewLabel) Variant() Variant { return vl.variant }

// StartDeps returns λ*(S), the induced dependency matrix of the start module
// under the view.
func (vl *ViewLabel) StartDeps() *boolmat.Matrix { return vl.start.Clone() }

// checkNode validates a 1-based node index of production k against the
// production's right-hand side. Data labels are untrusted input to the
// decoder, so indices must be checked before they reach a closure, a plan's
// edge-matrix slots or the grammar's node list (a map lookup in the
// materialized matrices catches them for free, but the graph-search path
// would index out of range).
// checkNode must only be called with an included (hence valid) k.
func (vl *ViewLabel) checkNode(k, i int) error {
	if n := len(vl.scheme.Spec.Grammar.Productions[k-1].RHS.Nodes); i < 1 || i > n {
		return fmt.Errorf("core: node index %d out of range for production %d (%d nodes) in view %q", i, k, n, vl.view.Name)
	}
	return nil
}

// edgeI returns I(k, i): the reachability matrix from the inputs of the
// left-hand side of production k to the inputs of its i-th right-hand-side
// node, under the view's full dependency assignment.
func (vl *ViewLabel) edgeI(qc *queryCtx, k, i int) (*boolmat.Matrix, error) {
	if !vl.includes(k) {
		return nil, fmt.Errorf("core: production %d is not part of view %q", k, vl.view.Name)
	}
	if err := vl.checkNode(k, i); err != nil {
		return nil, err
	}
	if vl.iMat != nil {
		if m, ok := vl.iMat[[2]int{k, i}]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("core: I(%d,%d) is undefined in view %q", k, i, vl.view.Name)
	}
	if qc.plan != nil {
		pe, err := vl.planEdges(qc, k)
		if err != nil {
			return nil, err
		}
		return pe.in[i-1], nil
	}
	cl, err := vl.closureFor(qc, k)
	if err != nil {
		return nil, err
	}
	return cl.InputsTo(i - 1), nil
}

// edgeO returns O(k, i): the reversed reachability matrix from the outputs of
// the left-hand side of production k to the outputs of its i-th node.
func (vl *ViewLabel) edgeO(qc *queryCtx, k, i int) (*boolmat.Matrix, error) {
	if !vl.includes(k) {
		return nil, fmt.Errorf("core: production %d is not part of view %q", k, vl.view.Name)
	}
	if err := vl.checkNode(k, i); err != nil {
		return nil, err
	}
	if vl.oMat != nil {
		if m, ok := vl.oMat[[2]int{k, i}]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("core: O(%d,%d) is undefined in view %q", k, i, vl.view.Name)
	}
	if qc.plan != nil {
		pe, err := vl.planEdges(qc, k)
		if err != nil {
			return nil, err
		}
		return pe.out[i-1], nil
	}
	cl, err := vl.closureFor(qc, k)
	if err != nil {
		return nil, err
	}
	return cl.OutputsTo(i - 1), nil
}

// edgeIO dispatches to edgeO or edgeI.
func (vl *ViewLabel) edgeIO(qc *queryCtx, k, i int, outputs bool) (*boolmat.Matrix, error) {
	if outputs {
		return vl.edgeO(qc, k, i)
	}
	return vl.edgeI(qc, k, i)
}

// edgeZ returns Z(k, i, j): the reachability matrix from the outputs of the
// i-th node of production k to the inputs of its j-th node. For i >= j the
// matrix is empty.
func (vl *ViewLabel) edgeZ(qc *queryCtx, k, i, j int) (*boolmat.Matrix, error) {
	if !vl.includes(k) {
		return nil, fmt.Errorf("core: production %d is not part of view %q", k, vl.view.Name)
	}
	if err := vl.checkNode(k, i); err != nil {
		return nil, err
	}
	if err := vl.checkNode(k, j); err != nil {
		return nil, err
	}
	if i >= j {
		g := vl.scheme.Spec.Grammar
		p := g.Productions[k-1]
		return qc.zero(g.Modules[p.RHS.Nodes[i-1]].Out, g.Modules[p.RHS.Nodes[j-1]].In), nil
	}
	if vl.zMat != nil {
		if m, ok := vl.zMat[[3]int{k, i, j}]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("core: Z(%d,%d,%d) is undefined in view %q", k, i, j, vl.view.Name)
	}
	if qc.plan != nil {
		pe, err := vl.planEdges(qc, k)
		if err != nil {
			return nil, err
		}
		return pe.z(i, j), nil
	}
	cl, err := vl.closureFor(qc, k)
	if err != nil {
		return nil, err
	}
	return cl.Between(i-1, j-1), nil
}

// planEdges returns production k's I, O and Z matrices from the plan attached
// to qc, materializing all of them on the production's first use. This is the
// graph-search path of VariantSpaceEfficient with the search amortized over
// the plan's lifetime; the closure it reads the matrices off is dropped once
// they are built. k must be included in the view.
func (vl *ViewLabel) planEdges(qc *queryCtx, k int) (*prodEdges, error) {
	slot := qc.plan.label(vl).edgesSlot(vl, k)
	if *slot == nil {
		cl, err := vl.newClosure(k)
		if err != nil {
			return nil, err
		}
		*slot = vl.newProdEdges(k, cl)
	}
	return *slot, nil
}

// closureFor computes, and caches for the duration of one query, the port
// closure of a production's right-hand side under λ*′. This is the
// graph-search path of a plan-free VariantSpaceEfficient query, which
// rebuilds every I, O and Z matrix it touches; the materialized variants
// never reach it, so their queries write nothing at all.
func (vl *ViewLabel) closureFor(qc *queryCtx, k int) (*safety.Closure, error) {
	if cl, ok := qc.closures[k]; ok {
		return cl, nil
	}
	cl, err := vl.newClosure(k)
	if err != nil {
		return nil, err
	}
	if qc.closures == nil {
		qc.closures = map[int]*safety.Closure{}
	}
	qc.closures[k] = cl
	return cl, nil
}

// newClosure computes the port closure of production k's right-hand side
// under λ*′.
func (vl *ViewLabel) newClosure(k int) (*safety.Closure, error) {
	p := vl.scheme.Spec.Grammar.Productions[k-1]
	return safety.NewClosure(vl.scheme.Spec.Grammar, p.RHS, vl.full)
}

// edgeMatrix implements procedures Inputs and Outputs of Algorithm 1: given
// an edge label of the compressed parse tree, it returns the reachability
// matrix from the inputs (outputs=false) or the reversed reachability matrix
// from the outputs (outputs=true) of the edge's parent module (for recursive
// edges, the first unfolded module of the recursion) to the same-kind ports
// of the edge's child module.
func (vl *ViewLabel) edgeMatrix(qc *queryCtx, e EdgeLabel, outputs bool) (*boolmat.Matrix, error) {
	if !e.Recursive() {
		return vl.edgeIO(qc, e.K(), e.I(), outputs)
	}
	return vl.recursionChain(qc, e.S(), e.T(), e.I(), outputs)
}

// recursionChain resolves a recursive edge (s, offset, i): the product of
// the i-1 cycle matrices starting at the given offset of cycle s.
func (vl *ViewLabel) recursionChain(qc *queryCtx, s, offset, i int, outputs bool) (*boolmat.Matrix, error) {
	c, err := vl.scheme.Cycle(s)
	if err != nil {
		return nil, err
	}
	n := i - 1 // number of matrices in the chain
	if n < 0 || offset < 1 {
		return nil, fmt.Errorf("core: recursive edge (%d,%d,%d) has child position or offset < 1", s, offset, i)
	}
	cache := vl.inRec
	if outputs {
		cache = vl.outRec
	}

	// Constant-time path: the cached prefix products and periodic powers.
	// Offsets wrap around the cycle (EdgeAt's convention), but the caches
	// are keyed by offsets in [1, Len] only — normalize before looking up,
	// or the chains decodeMainMatrix's recursive cases ask for (offset
	// el.T+i, possibly past one full turn) would silently fall to the slow
	// product/power path below.
	t := (offset-1)%c.Len() + 1
	if cache != nil {
		if rc, ok := cache[[2]int{s, t}]; ok {
			return rc.product(qc, n), nil
		}
	} else if qc.plan != nil && vl.cycleIncluded(c) {
		// A label without static chains builds the same chain into an
		// attached plan, once per (cycle, offset, side). A chain that cannot
		// be built (a cycle edge undefined in the view) leaves the slot
		// empty and the query to the product/power path below.
		slot := qc.plan.label(vl).chainSlot(vl, s, t, outputs)
		if *slot == nil {
			unbounded := math.MaxInt
			if rc, err := vl.buildChain(qc, c, t, outputs, &unbounded); err == nil {
				*slot = rc
			}
		}
		if rc := *slot; rc != nil {
			return rc.product(qc, n), nil
		}
	}

	mod, err := vl.scheme.moduleAtCycleOffset(s, offset)
	if err != nil {
		return nil, err
	}
	dim := mod.In
	if outputs {
		dim = mod.Out
	}
	if n == 0 {
		return qc.identity(dim), nil
	}

	l := c.Len()
	// Base matrices of one full turn around the cycle, starting at offset t.
	block := make([]*boolmat.Matrix, 0, l)
	for a := 0; a < l && a < n; a++ {
		edge := c.EdgeAt(offset + a)
		m, err := vl.edgeIO(qc, edge.K, edge.I, outputs)
		if err != nil {
			return nil, err
		}
		block = append(block, m)
	}
	if n <= l {
		return boolmat.Product(block...), nil
	}
	// n > l: X^q times the first r block matrices, where X is the product of
	// one full turn (divide-and-conquer power, O(log n) multiplications).
	x := boolmat.Product(block...)
	q, r := n/l, n%l
	result := x.Pow(q)
	var spare *boolmat.Matrix
	for a := 0; a < r; a++ {
		// result is owned (Pow returns a fresh matrix), so the remainder of
		// the chain can ping-pong between it and one scratch buffer.
		spare = boolmat.MulInto(spare, result, block[a])
		result, spare = spare, result
	}
	return result, nil
}

// Visible reports whether a data item with the given label is visible in the
// view of a run: every production referenced by the label's paths (directly
// by a (k, i) edge or through the unfolding of a recursion) must belong to
// the restricted grammar G_∆′ (Section 5, data-visibility check).
func (vl *ViewLabel) Visible(d DataLabel) bool {
	return vl.pathVisible(d.Out.Path) && vl.pathVisible(d.In.Path)
}

func (vl *ViewLabel) pathVisible(path []EdgeLabel) bool {
	for _, e := range path {
		if !e.Recursive() {
			if !vl.includes(e.K()) {
				return false
			}
			continue
		}
		c, err := vl.scheme.Cycle(e.S())
		if err != nil {
			return false
		}
		// Data labels are untrusted input: a recursive edge with an offset
		// outside the cycle or a child position < 1 is malformed (the run
		// labeler never emits one) and would panic the wraparound helpers
		// downstream. Visible is the choke point every query passes through
		// for both labels, so rejecting here keeps the whole decode path
		// panic-free.
		if e.T() < 1 || e.T() > c.Len() || e.I() < 1 {
			return false
		}
		// Children 2..I of the recursive node were created by the cycle
		// productions at offsets T .. T+I-2.
		for a := 0; a < e.I()-1 && a < c.Len(); a++ {
			if !vl.includes(c.EdgeAt(e.T() + a).K) {
				return false
			}
		}
		if e.I()-1 > c.Len() {
			// More than one full turn around the cycle: every cycle production
			// is involved.
			if !vl.cycleIncluded(c) {
				return false
			}
		}
	}
	return true
}

// SizeBits returns the size of the view label in bits under the chosen
// variant, the measure reported by the Figure 19 experiment: one bit per
// materialized matrix entry (λ*′ for the space-efficient variant; λ*(S), I,
// O and Z for the default variant; plus the recursion caches for the
// query-efficient variant).
func (vl *ViewLabel) SizeBits() int {
	total := 0
	switch vl.variant {
	case VariantSpaceEfficient:
		for _, m := range vl.full {
			total += m.Rows() * m.Cols()
		}
	case VariantDefault, VariantQueryEfficient:
		total += vl.start.Rows() * vl.start.Cols()
		for _, m := range vl.iMat {
			total += m.Rows() * m.Cols()
		}
		for _, m := range vl.oMat {
			total += m.Rows() * m.Cols()
		}
		for _, m := range vl.zMat {
			total += m.Rows() * m.Cols()
		}
		if vl.variant == VariantQueryEfficient {
			for _, rc := range vl.inRec {
				for _, m := range rc.prefixes {
					total += m.Rows() * m.Cols()
				}
				total += rc.period.SizeBits()
			}
			for _, rc := range vl.outRec {
				for _, m := range rc.prefixes {
					total += m.Rows() * m.Cols()
				}
				total += rc.period.SizeBits()
			}
		}
	}
	return total
}
