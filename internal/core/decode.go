package core

import (
	"fmt"

	"repro/internal/boolmat"
	"repro/internal/faults"
	"repro/internal/workflow"
)

// moduleAt returns the module denoted by the compressed-parse-tree node at
// the end of the given edge-label path, starting from the start module. It
// checks every edge, but only the last one names the module.
func (s *Scheme) moduleAt(path []EdgeLabel) (workflow.Module, error) {
	g := s.Spec.Grammar
	name := g.Start
	for _, e := range path {
		if e.Recursive() {
			n, err := s.cycleModule(e.S(), e.T()+e.I()-1)
			if err != nil {
				return workflow.Module{}, err
			}
			name = n
			continue
		}
		if e.K() < 1 || e.K() > len(g.Productions) {
			return workflow.Module{}, fmt.Errorf("core: edge label %v references unknown production", e)
		}
		p := g.Productions[e.K()-1]
		if e.I() < 1 || e.I() > len(p.RHS.Nodes) {
			return workflow.Module{}, fmt.Errorf("core: edge label %v references unknown node of production %d", e, e.K())
		}
		name = p.RHS.Nodes[e.I()-1]
	}
	return g.Modules[name], nil
}

// mulInto multiplies two reachability matrices into dst (which must not
// alias a or b; nil allocates). When the label is in matrix-free mode
// (Section 6.4), products of complete or empty matrices are short-circuited,
// which preserves correctness and avoids most of the matrix arithmetic on
// coarse-grained views.
func (vl *ViewLabel) mulInto(dst, a, b *boolmat.Matrix) *boolmat.Matrix {
	if vl.matrixFree {
		if a.IsEmpty() || b.IsEmpty() {
			return boolmat.Zero(dst, a.Rows(), b.Cols())
		}
		if a.Cols() > 0 && a.IsFull() && b.IsFull() {
			return boolmat.Ones(dst, a.Rows(), b.Cols())
		}
	}
	return boolmat.MulInto(dst, a, b)
}

// vecMul returns w·op(m) in a scratch slot, where op transposes m when t is
// set. A nil w stands for the unit row of r, so the result is row r of
// op(m). Data labels are untrusted: a port index outside op(m) or a vector
// that does not conform is an error, not a panic. In matrix-free mode it
// short-circuits as mulInto does: an empty vector or factor gives an empty
// row, and a non-empty vector times a full factor a full row.
func (vl *ViewLabel) vecMul(qc *queryCtx, w *boolmat.Matrix, r int, m *boolmat.Matrix, t bool) (*boolmat.Matrix, error) {
	rows, cols := m.Rows(), m.Cols()
	if t {
		rows, cols = cols, rows
	}
	switch {
	case w == nil && (r < 0 || r >= rows):
		return nil, fmt.Errorf("core: port index %d out of range for a reachability matrix side of %d ports", r, rows)
	case w != nil && w.Cols() != rows:
		return nil, fmt.Errorf("core: inconsistent data labels: cannot chain a %d-port vector with a %d-port reachability matrix side", w.Cols(), rows)
	}
	i := qc.take()
	switch {
	case vl.matrixFree && (w != nil && w.IsEmpty() || m.IsEmpty()):
		qc.scratch[i] = boolmat.Zero(qc.scratch[i], 1, cols)
	case vl.matrixFree && m.IsFull():
		qc.scratch[i] = boolmat.Ones(qc.scratch[i], 1, cols)
	case w == nil && t:
		qc.scratch[i] = boolmat.ColInto(qc.scratch[i], m, r)
	case w == nil:
		qc.scratch[i] = boolmat.RowInto(qc.scratch[i], m, r)
	case t:
		qc.scratch[i] = boolmat.MulVecInto(qc.scratch[i], m, w)
	default:
		qc.scratch[i] = boolmat.MulInto(qc.scratch[i], w, m)
	}
	return qc.scratch[i], nil
}

// conform checks that a x b is defined.
func conform(a, b *boolmat.Matrix) error {
	if a.Cols() != b.Rows() {
		return fmt.Errorf("core: inconsistent data labels: cannot chain a %dx%d reachability matrix with a %dx%d one", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	return nil
}

// chainProduct folds a sequence of edge matrices left to right, ping-ponging
// between two scratch slots of the query context so a chain of any length
// uses at most two matrices of storage. The first factor may be a matrix
// cached in the label and is never written to; the returned matrix is either
// that first factor (single-element chains) or one of the two slots.
func (vl *ViewLabel) chainProduct(qc *queryCtx, path []EdgeLabel, from int, outputs bool) (*boolmat.Matrix, error) {
	result, err := vl.edgeMatrix(qc, path[from], outputs)
	if err != nil {
		return nil, err
	}
	if from+1 >= len(path) {
		return result, nil
	}
	bufs := [2]int{qc.take(), qc.take()}
	cur := 0
	for _, e := range path[from+1:] {
		m, err := vl.edgeMatrix(qc, e, outputs)
		if err != nil {
			return nil, err
		}
		if err := conform(result, m); err != nil {
			return nil, err
		}
		qc.scratch[bufs[cur]] = vl.mulInto(qc.scratch[bufs[cur]], result, m)
		result = qc.scratch[bufs[cur]]
		cur ^= 1
	}
	return result, nil
}

// DependsOn is the decoding predicate π of the view-adaptive labeling scheme
// (Algorithm 2): using only the two data labels and this view label, it
// reports whether the data item labeled d2 depends on the data item labeled
// d1 with respect to the view. It returns an error when either data item is
// not visible in the view, or when the labels are structurally inconsistent
// with the scheme's specification.
//
// The label is not written during decoding, so DependsOn is safe to call
// from any number of goroutines concurrently; each call borrows a query
// context from a shared pool. Workers issuing many queries back to back can
// pin a context with NewQuerySession instead.
func (vl *ViewLabel) DependsOn(d1, d2 DataLabel) (bool, error) {
	qc := queryCtxPool.Get().(*queryCtx)
	defer queryCtxPool.Put(qc)
	return vl.dependsOn(qc, d1, d2)
}

// dependsOn answers one query using the given context.
func (vl *ViewLabel) dependsOn(qc *queryCtx, d1, d2 DataLabel) (bool, error) {
	qc.begin()
	if !d1.Out.Present() && !d1.In.Present() || !d2.Out.Present() && !d2.In.Present() {
		return false, fmt.Errorf("core: a data label without ports labels no item")
	}
	return vl.decide(qc, nil, d1, d2)
}

// dependsOnIndexed answers the point query between items from and to of idx:
// the same answer dependsOn gives on their labels, with visibility and the
// path-suffix chain products served from the plan attached for idx, where
// the index's set scans cache them per owner instance.
func (vl *ViewLabel) dependsOnIndexed(qc *queryCtx, idx *ItemIndex, from, to int) (bool, error) {
	qc.begin()
	a, ok := idx.resolve(from)
	if !ok {
		return false, fmt.Errorf("core: item %d has no label in the index: %w", from, faults.ErrUnknownItem)
	}
	b, ok := idx.resolve(to)
	if !ok {
		return false, fmt.Errorf("core: item %d has no label in the index: %w", to, faults.ErrUnknownItem)
	}
	return vl.decide(qc, idx, a, b)
}

// endVisible is pathVisible of one port side, cached per owner instance when
// the item was resolved through idx. An absent side is vacuously visible.
func (vl *ViewLabel) endVisible(qc *queryCtx, idx *ItemIndex, p PortLabel) bool {
	if idx != nil && p.Present() {
		return vl.nodeVisible(qc, idx, p.Owner())
	}
	return vl.pathVisible(p.Path)
}

// decide is Algorithm 2's dispatch over two items, shared by the label and
// the index-resolved point queries; idx is nil for labels.
func (vl *ViewLabel) decide(qc *queryCtx, idx *ItemIndex, a, b DataLabel) (bool, error) {
	if !vl.endVisible(qc, idx, a.Out) || !vl.endVisible(qc, idx, a.In) {
		return false, fmt.Errorf("core: the first data item is not visible in view %q: %w", vl.view.Name, faults.ErrHiddenItem)
	}
	if !vl.endVisible(qc, idx, b.Out) || !vl.endVisible(qc, idx, b.In) {
		return false, fmt.Errorf("core: the second data item is not visible in view %q: %w", vl.view.Name, faults.ErrHiddenItem)
	}

	// Case I: a final output has no dependents; nothing depends on less than
	// an initial input.
	if !a.In.Present() || !b.Out.Present() {
		return false, nil
	}

	// Cases II, III, IV and the main cases: the row of a's port in the
	// case's chain, read at b's port. It is the vector a RevDeps scan of a
	// builds for b.
	var memo tailMemo
	vec, err := vl.candidateRow(qc, idx, &memo, &a.Out, &a.In, &b.In, false)
	if err != nil || vec == nil {
		return false, err
	}
	p := int(b.In.Port)
	if !b.In.Present() {
		p = int(b.Out.Port)
	}
	if p < 0 || p >= vec.Cols() {
		return false, fmt.Errorf("core: port index %d out of range for a reachability matrix side of %d ports", p, vec.Cols())
	}
	return vec.Get(0, p), nil
}

// candidateRow is Algorithm 2's body for one candidate against a target: the
// one evaluator of the point queries (decide) and the set scans (scanRow).
// With deps the candidate is the query's d1 and the target its d2, else the
// other way round. near is the target's port on the candidate's side (its
// consuming port with deps) and far its other port, which must be present:
// Case I is the caller's. cand is the candidate's port on the target's side,
// which names the owner and path the candidate's chain reads; it is absent
// for a candidate on the run's boundary. The result is the target's row of
// the case's decoding matrix (its column with deps) as a vector indexed by
// the candidate's port: cand's, or the candidate's other port on the
// boundary. A nil vector with no error means the case is false for every
// port. memo keeps the main cases' target side of the chain from one call to
// the next.
func (vl *ViewLabel) candidateRow(qc *queryCtx, idx *ItemIndex, memo *tailMemo, near, far, cand *PortLabel, deps bool) (*boolmat.Matrix, error) {
	switch {
	case !cand.Present() && !near.Present():
		// Case II: initial input to final output — both are ports of the
		// start module, so λ*(S) answers directly.
		return vl.vecMul(qc, nil, int(far.Port), vl.start, deps)
	case !cand.Present():
		// Case III (deps) or IV: the I (O) matrices chained along the
		// target's path.
		m, err := vl.suffixProduct(qc, idx, near.Owner(), near.Path, 0, !deps)
		if err != nil {
			return nil, err
		}
		return vl.vecMul(qc, nil, int(near.Port), m, true)
	case !near.Present():
		// Case IV (deps) or III: the O (I) matrices chained along the
		// candidate's path.
		m, err := vl.suffixProduct(qc, idx, cand.Owner(), cand.Path, 0, deps)
		if err != nil {
			return nil, err
		}
		return vl.vecMul(qc, nil, int(far.Port), m, false)
	}

	// Main cases 1, 2a and 2b: both items are intermediate. A Deps target's
	// column is the row of the flipped chain.
	ch := &qc.chain
	var err error
	if deps {
		err = vl.mainChain(ch, cand.Owner(), cand.Path, near.Owner(), near.Path)
		ch.flipped = true
	} else {
		err = vl.mainChain(ch, near.Owner(), near.Path, cand.Owner(), cand.Path)
	}
	if err != nil || ch.n == 0 {
		return nil, err
	}
	r, key := int(near.Port), tailKeyOf(ch, cand.Path)
	if memo.ok && memo.key == key {
		qc.tailHits[0]++
		if ch.recursive {
			qc.tailHits[1]++
		}
	} else {
		qc.rewind(0)
		memo.w, memo.err = vl.rowTail(qc, idx, ch, r)
		memo.ok, memo.key, memo.mark = true, key, qc.used
	}
	if memo.err != nil {
		return nil, memo.err
	}
	return vl.rowHead(qc, idx, ch, memo.w, r)
}

// factorKind tells where a chain factor's matrix comes from.
type factorKind uint8

const (
	suffixFactor factorKind = iota // suffixProduct from a: l1's with outputs, else l2's
	zFactor                        // edgeZ(a, b, c)
	recFactor                      // recursionChain(a, b, c, outputs)
)

// factor names one matrix of a decode chain without fetching it, so the row
// evaluator fetches each factor only when it multiplies it.
type factor struct {
	kind       factorKind
	transposed bool // the chain multiplies the matrix's transpose
	outputs    bool
	a, b, c    int32
}

// decodeChain is the factor chain of case 2a or 2b between the tree nodes of
// a producing path l1 and a consuming path l2: op(f[0])·…·op(f[n-1]), where
// op transposes the factors flagged so. f[0] is l1's O-suffix product and
// f[n-1] l2's I-suffix product; between them sit a Z matrix and, in case 2b,
// a recursion chain. n is 0 when the case is false for every port pair. A
// flipped chain stands for the transposed product: the same factors in
// reverse order with their flags negated, so column c of the product is row
// c of the flipped chain's.
type decodeChain struct {
	f       [4]factor
	n       int
	flipped bool

	// The paths and owner instances the suffix factors read: index 0 is l1's
	// side, 1 is l2's.
	path [2][]EdgeLabel
	node [2]int32

	// shared is the depth of the paths' least common ancestor, and recursive
	// marks case 2b. The factors between the two suffix products depend on
	// the paths only through shared, the edges at shared and, in case 2b,
	// the edges at shared+1 (see tailKey).
	shared    int
	recursive bool
}

// side returns the index into decodeChain.path and node of the path a
// suffix factor reads: l1's (0) for the O side, else l2's (1).
func (f *factor) side() int {
	if f.outputs {
		return 0
	}
	return 1
}

func (ch *decodeChain) push(kind factorKind, transposed, outputs bool, a, b, c int) {
	ch.f[ch.n] = factor{kind: kind, transposed: transposed, outputs: outputs, a: int32(a), b: int32(b), c: int32(c)}
	ch.n++
}

// at returns the i-th factor of the chain as it multiplies, and whether it
// multiplies transposed.
func (ch *decodeChain) at(i int) (*factor, bool) {
	if ch.flipped {
		f := &ch.f[ch.n-1-i]
		return f, !f.transposed
	}
	return &ch.f[i], ch.f[i].transposed
}

// mainChain is the case analysis of cases 1, 2a and 2b. It checks the two
// paths against each other and the grammar's cycles and writes the factor
// chain of the decoding matrix into ch, every structural check included, but
// fetches no matrix: that is left to rowTail and rowHead, which read one row
// of it.
func (vl *ViewLabel) mainChain(ch *decodeChain, srcNode int32, l1 []EdgeLabel, dstNode int32, l2 []EdgeLabel) error {
	ch.n, ch.flipped, ch.recursive = 0, false, false
	ch.path[0], ch.path[1], ch.node[0], ch.node[1] = l1, l2, srcNode, dstNode
	shared := commonPrefixLen(l1, l2)
	ch.shared = shared

	// Case 1: the two tree nodes coincide or one is an ancestor of the other;
	// the consuming port cannot be reached from the producing port.
	if shared == len(l1) || shared == len(l2) {
		return nil
	}

	el, er := l1[shared], l2[shared]
	if el.Recursive() != er.Recursive() {
		return fmt.Errorf("core: inconsistent data labels: paths diverge at %v vs %v", el, er)
	}

	if !el.Recursive() {
		// Case 2a: the least common ancestor is an ordinary node; both edges
		// come from the same production.
		if el.K() != er.K() {
			return fmt.Errorf("core: inconsistent data labels: sibling edges %v and %v use different productions", el, er)
		}
		i, j := el.I(), er.I()
		if i > j {
			return nil
		}
		ch.push(suffixFactor, true, true, shared+1, 0, 0)
		ch.push(zFactor, false, false, el.K(), i, j)
		ch.push(suffixFactor, false, false, shared+1, 0, 0)
		return nil
	}

	// Case 2b: the least common ancestor is a recursive node.
	ch.recursive = true
	if el.S() != er.S() || el.T() != er.T() {
		return fmt.Errorf("core: inconsistent data labels: sibling recursive edges %v and %v disagree on the cycle", el, er)
	}
	c, err := vl.scheme.Cycle(el.S())
	if err != nil {
		return err
	}
	i, j := el.I(), er.I()
	switch {
	case i < j:
		// The producing port lives in an earlier unfolding of the recursion
		// than the consuming port.
		if shared+1 == len(l1) {
			// o1 is a port of the i-th unfolded composite module itself; the
			// j-th module is derived from it, so nothing flows forward.
			return nil
		}
		next := l1[shared+1]
		if next.Recursive() {
			return fmt.Errorf("core: inconsistent data labels: expected a production edge after %v, got %v", el, next)
		}
		ce := c.EdgeAt(el.T() + i - 1) // the cycle edge leaving the i-th module
		if next.K() != ce.K {
			return fmt.Errorf("core: inconsistent data labels: edge %v does not use the cycle production %d", next, ce.K)
		}
		iPrime, jPrime := next.I(), ce.I
		if iPrime > jPrime {
			return nil
		}
		ch.push(suffixFactor, true, true, shared+2, 0, 0)
		ch.push(zFactor, false, false, ce.K, iPrime, jPrime)
		ch.push(recFactor, false, false, el.S(), el.T()+i, j-i)
		ch.push(suffixFactor, false, false, shared+1, 0, 0)
		return nil

	case i > j:
		// The producing port lives in a later (more deeply nested) unfolding
		// than the consuming port; flow goes out through the recursion and
		// then forward inside the j-th unfolding's production.
		if shared+1 == len(l2) {
			// i2 is a port of the j-th unfolded composite module itself; a
			// descendant's output cannot reach its ancestor's input.
			return nil
		}
		next := l2[shared+1]
		if next.Recursive() {
			return fmt.Errorf("core: inconsistent data labels: expected a production edge after %v, got %v", er, next)
		}
		ce := c.EdgeAt(el.T() + j - 1) // the cycle edge leaving the j-th module
		if next.K() != ce.K {
			return fmt.Errorf("core: inconsistent data labels: edge %v does not use the cycle production %d", next, ce.K)
		}
		rPrime, jPrime := ce.I, next.I()
		if rPrime > jPrime {
			return nil
		}
		ch.push(suffixFactor, true, true, shared+1, 0, 0)
		ch.push(recFactor, true, true, el.S(), el.T()+j, i-j)
		ch.push(zFactor, false, false, ce.K, rPrime, jPrime)
		ch.push(suffixFactor, false, false, shared+2, 0, 0)
		return nil

	default:
		return fmt.Errorf("core: inconsistent data labels: identical recursive edges %v treated as divergent", el)
	}
}

// fetch returns the matrix a factor of ch names.
func (vl *ViewLabel) fetch(qc *queryCtx, idx *ItemIndex, ch *decodeChain, f *factor) (*boolmat.Matrix, error) {
	switch f.kind {
	case zFactor:
		return vl.edgeZ(qc, int(f.a), int(f.b), int(f.c))
	case recFactor:
		return vl.recursionChain(qc, int(f.a), int(f.b), int(f.c), f.outputs)
	default:
		side := f.side()
		return vl.suffixProduct(qc, idx, ch.node[side], ch.path[side], int(f.a), f.outputs)
	}
}

// rowTail is row r of the chain's product without its last factor, row r of
// op(f[0])·…·op(f[n-2]) as a 1-row vector, or nil for a one-factor chain,
// whose row rowHead picks directly. The product is never multiplied out:
// row r of op(f[0]) is a row or column of f[0], and every further factor
// costs one vector product. Column c of the product is row c of the flipped
// chain. Data labels are untrusted: it fails on the errors of fetch, and
// when r is not a row of the product or the factors do not conform.
func (vl *ViewLabel) rowTail(qc *queryCtx, idx *ItemIndex, ch *decodeChain, r int) (*boolmat.Matrix, error) {
	var w *boolmat.Matrix
	for i := 0; i < ch.n-1; i++ {
		var err error
		if w, err = vl.mulFactor(qc, idx, ch, i, w, r); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// rowHead finishes row r of the chain's product from its tail w:
// w·op(f[n-1]).
func (vl *ViewLabel) rowHead(qc *queryCtx, idx *ItemIndex, ch *decodeChain, w *boolmat.Matrix, r int) (*boolmat.Matrix, error) {
	return vl.mulFactor(qc, idx, ch, ch.n-1, w, r)
}

// mulFactor is vecMul of w (the unit row r when nil) and the i-th factor of
// ch as it multiplies. A suffix factor over an empty suffix is an identity,
// which only checks that w conforms and passes it through, so the identity
// is never built.
func (vl *ViewLabel) mulFactor(qc *queryCtx, idx *ItemIndex, ch *decodeChain, i int, w *boolmat.Matrix, r int) (*boolmat.Matrix, error) {
	f, t := ch.at(i)
	if side := f.side(); f.kind == suffixFactor && w != nil && int(f.a) >= len(ch.path[side]) {
		n, err := vl.identitySize(ch.path[side], f.outputs)
		if err != nil {
			return nil, err
		}
		if w.Cols() != n {
			return nil, fmt.Errorf("core: inconsistent data labels: cannot chain a %d-port vector with a %d-port reachability matrix side", w.Cols(), n)
		}
		return w, nil
	}
	m, err := vl.fetch(qc, idx, ch, f)
	if err != nil {
		return nil, err
	}
	return vl.vecMul(qc, w, r, m, t)
}
