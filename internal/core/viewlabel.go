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

	// Full dependency assignment λ*′ (always kept; it is the entire payload of
	// VariantSpaceEfficient and the fallback for on-the-fly computation).
	full workflow.DependencyAssignment

	// edges holds the materialized I, O and Z matrices (VariantDefault and
	// VariantQueryEfficient), one prodEdges per production indexed by 1-based
	// production number: nil for a production the view excludes or cannot
	// derive, and nil as a whole for VariantSpaceEfficient. The plan's
	// planLabel.edges has the same layout.
	edges []*prodEdges

	// chains holds the recursion caches (VariantQueryEfficient only), in
	// planLabel.chains' layout: [side][cycle-1][offset-1], side 1 the O
	// (outputs) side, a nil row for a cycle the view does not include.
	chains [2][][]*recChain

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
	vl.edges = make([]*prodEdges, len(vl.included))
	for k, inc := range vl.included {
		// A production that is included but not derivable in the view has
		// no closure; its matrices are never needed by visible data labels.
		if cl, ok := closures[k]; inc && ok {
			vl.edges[k] = vl.newProdEdges(k, cl)
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
// (Section 4.3): in[i-1] is I(k, i), out[i-1] is O(k, i) and between holds
// Z(k, i, j) for i < j (at reads them all).
type prodEdges struct {
	n       int               // right-hand-side nodes
	in, out []*boolmat.Matrix // by 0-based node
	between []*boolmat.Matrix // Z(k, i, j) at (i-1)*n + j-1, nil for i >= j
}

// The matrices of a production, as selected in the edge resolver. kindI and
// kindO are sideOf(false) and sideOf(true).
const (
	kindI = iota // I(k, i)
	kindO        // O(k, i)
	kindZ        // Z(k, i, j)
)

// at returns I(k, i), O(k, i) or, for i < j, Z(k, i, j) by kind.
func (pe *prodEdges) at(kind, i, j int) *boolmat.Matrix {
	switch kind {
	case kindI:
		return pe.in[i-1]
	case kindO:
		return pe.out[i-1]
	}
	return pe.between[(i-1)*pe.n+j-1]
}

// newProdEdges reads every I, O and Z matrix of production k off cl, the
// port closure of k's right-hand side under λ*′. It fills locals and returns
// a new value, so the plan path that calls it writes no label state.
func (vl *ViewLabel) newProdEdges(k int, cl *safety.Closure) *prodEdges {
	n := len(vl.scheme.Spec.Grammar.Productions[k-1].RHS.Nodes)
	in, out, between := make([]*boolmat.Matrix, n), make([]*boolmat.Matrix, n), make([]*boolmat.Matrix, n*n)
	for i := 0; i < n; i++ {
		in[i] = cl.InputsTo(i)
		out[i] = cl.OutputsTo(i)
		for j := i + 1; j < n; j++ {
			between[i*n+j] = cl.Between(i, j)
		}
	}
	return &prodEdges{n: n, in: in, out: out, between: between}
}

// buildRecursionCaches materializes, for every cycle of the production graph
// that survives in the view and every starting offset, the prefix products
// and the periodic powers of the I and O matrices along the cycle. The power
// tables are charged against *budget.
//
//fvlvet:viewlabel-ctor
func (vl *ViewLabel) buildRecursionCaches(budget *int) error {
	// Construction runs with its own throwaway context; the query-efficient
	// variant has its matrices materialized, so the context stays empty.
	qc := new(queryCtx)
	for side := range vl.chains {
		vl.chains[side] = make([][]*recChain, len(vl.scheme.Cycles))
	}
	for _, c := range vl.scheme.Cycles {
		if !vl.cycleIncluded(c) {
			continue
		}
		rows := [2][]*recChain{make([]*recChain, c.Len()), make([]*recChain, c.Len())}
		for t := 1; t <= c.Len(); t++ {
			for side := range rows {
				rc, err := vl.buildChain(qc, c, t, side == 1, budget)
				if err != nil {
					return err
				}
				rows[side][t-1] = rc
			}
		}
		vl.chains[0][c.Index-1], vl.chains[1][c.Index-1] = rows[0], rows[1]
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

// edge is the one resolver of the I, O and Z matrices (Section 4.3): it
// returns I(k, i), O(k, i) or Z(k, i, j) by kind; j is read for kindZ only.
// Data labels are untrusted input to the decoder and every source below is
// indexed by the (k, i, j) they supply, so k and the node indices are
// checked first. Z(k, i, j) for i >= j is empty. Any other matrix comes from
// the first source that holds it:
//
//  1. the label's own table, for the materialized variants;
//  2. the attached plan's slot for k, which is filled with every I, O and Z
//     matrix of k on k's first use — the graph-search path amortized over
//     the plan's lifetime, dropping the closure once the matrices are read;
//  3. the per-query closure memo — the graph-search path of a plan-free
//     VariantSpaceEfficient query, which rebuilds every matrix it touches.
//     The materialized variants never reach it, so their queries write
//     nothing at all.
func (vl *ViewLabel) edge(qc *queryCtx, kind, k, i, j int) (*boolmat.Matrix, error) {
	if !vl.includes(k) {
		return nil, fmt.Errorf("core: production %d is not part of view %q", k, vl.view.Name)
	}
	nodes := vl.scheme.Spec.Grammar.Productions[k-1].RHS.Nodes
	for _, x := range [2]int{i, j} {
		if x < 1 || x > len(nodes) {
			return nil, fmt.Errorf("core: node index %d out of range for production %d (%d nodes) in view %q", x, k, len(nodes), vl.view.Name)
		}
		if kind != kindZ {
			break
		}
	}
	if kind == kindZ && i >= j {
		g := vl.scheme.Spec.Grammar
		return qc.zero(g.Modules[nodes[i-1]].Out, g.Modules[nodes[j-1]].In), nil
	}
	var pe *prodEdges
	switch {
	case vl.edges != nil:
		if pe = vl.edges[k]; pe == nil {
			return nil, fmt.Errorf("core: production %d is not derivable in view %q, so its matrices are undefined", k, vl.view.Name)
		}
	case qc.plan != nil:
		slot := qc.plan.label(vl).edgesSlot(vl, k)
		if *slot == nil {
			cl, err := vl.newClosure(k)
			if err != nil {
				return nil, err
			}
			*slot = vl.newProdEdges(k, cl)
		}
		pe = *slot
	default:
		cl, ok := qc.closures[k]
		if !ok {
			var err error
			if cl, err = vl.newClosure(k); err != nil {
				return nil, err
			}
			if qc.closures == nil {
				qc.closures = map[int]*safety.Closure{}
			}
			qc.closures[k] = cl
		}
		switch kind {
		case kindI:
			return cl.InputsTo(i - 1), nil
		case kindO:
			return cl.OutputsTo(i - 1), nil
		}
		return cl.Between(i-1, j-1), nil
	}
	return pe.at(kind, i, j), nil
}

// edgeIO returns I(k, i), the reachability matrix from the inputs of the
// left-hand side of production k to the inputs of its i-th right-hand-side
// node, or with outputs O(k, i), the reversed reachability matrix from the
// left-hand side's outputs to the node's outputs.
func (vl *ViewLabel) edgeIO(qc *queryCtx, k, i int, outputs bool) (*boolmat.Matrix, error) {
	return vl.edge(qc, sideOf(outputs), k, i, 0)
}

// edgeZ returns Z(k, i, j): the reachability matrix from the outputs of the
// i-th node of production k to the inputs of its j-th node. For i >= j the
// matrix is empty.
func (vl *ViewLabel) edgeZ(qc *queryCtx, k, i, j int) (*boolmat.Matrix, error) {
	return vl.edge(qc, kindZ, k, i, j)
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
	// Constant-time path: the cached prefix products and periodic powers.
	// Offsets wrap around the cycle (EdgeAt's convention), but the tables
	// are indexed by offsets in [1, Len] only — normalize before looking up,
	// or the chains mainChain's case 2b asks for (offset el.T+i, possibly
	// past one full turn) would silently fall to the slow product/power path
	// below.
	if rc := vl.chain(qc, c, (offset-1)%c.Len()+1, outputs); rc != nil {
		return rc.product(qc, n), nil
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

// chain is the one resolver of the recursion chains (Section 4.4.3): it
// returns the chain of cycle c at normalized offset t in [1, c.Len()] from
// the label's own table when the label has one (VariantQueryEfficient), and
// otherwise from the attached plan's slot, built on first use, once per
// (cycle, offset, side). It returns nil, leaving the query to the
// product/power path, when there is neither table nor plan, when the view
// does not include the whole cycle, or when the chain cannot be built (a
// cycle edge undefined in the view, which leaves the plan's slot empty).
func (vl *ViewLabel) chain(qc *queryCtx, c prodgraph.Cycle, t int, outputs bool) *recChain {
	side := sideOf(outputs)
	if table := vl.chains[side]; table != nil {
		if row := table[c.Index-1]; row != nil {
			return row[t-1]
		}
		return nil
	}
	if qc.plan == nil || !vl.cycleIncluded(c) {
		return nil
	}
	slot := qc.plan.label(vl).chainSlot(vl, c.Index, t, outputs)
	if *slot == nil {
		unbounded := math.MaxInt
		if rc, err := vl.buildChain(qc, c, t, outputs, &unbounded); err == nil {
			*slot = rc
		}
	}
	return *slot
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
		for _, pe := range vl.edges {
			if pe != nil {
				total += matBits(pe.in) + matBits(pe.out) + matBits(pe.between)
			}
		}
		for _, table := range vl.chains {
			for _, row := range table {
				for _, rc := range row {
					total += matBits(rc.prefixes) + rc.period.SizeBits()
				}
			}
		}
	}
	return total
}

// matBits counts one bit per entry of every non-nil matrix of ms.
func matBits(ms []*boolmat.Matrix) int {
	total := 0
	for _, m := range ms {
		if m != nil {
			total += m.Rows() * m.Cols()
		}
	}
	return total
}
