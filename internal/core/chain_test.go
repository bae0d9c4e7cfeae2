package core

// Differential tests for the decoder's one evaluator: candidateRow reads one
// row (or, on the flipped chain, one column) of mainChain's factor chain
// without multiplying it out, for the point queries and for every group of
// the set scans, the latter through a one-entry memo of the target's side of
// the chain. The chain multiplied out (product, below) is the reference the
// row form is held to, and a point loop the reference the scans are.

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// chainFixture is one labeled run, its item index, and its view labels: the
// default view and a grey-box view, each under every variant.
type chainFixture struct {
	name string
	lab  *RunLabeler
	idx  *ItemIndex
	vls  []*ViewLabel
}

// newChainFixture labels a random run of spec under NewScheme, or
// NewSchemeBasic with basic, and the default view and grey under every
// variant.
func newChainFixture(tb testing.TB, name string, spec *workflow.Specification, basic bool, size int, seed int64, grey *view.View) chainFixture {
	tb.Helper()
	newScheme := NewScheme
	if basic {
		newScheme = NewSchemeBasic
	}
	scheme, err := newScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		tb.Fatal(err)
	}
	lab, err := scheme.LabelRun(r)
	if err != nil {
		tb.Fatal(err)
	}
	f := chainFixture{name: name, lab: lab, idx: BuildItemIndex(0, lab.Count(), lab.Label)}
	for _, v := range []*view.View{view.Default(spec), grey} {
		for _, variant := range []Variant{VariantSpaceEfficient, VariantDefault, VariantQueryEfficient} {
			vl, err := scheme.LabelView(v, variant)
			if err != nil {
				tb.Fatal(err)
			}
			f.vls = append(f.vls, vl)
		}
	}
	return f
}

// greyView draws a random grey-box view of six composites.
func greyView(tb testing.TB, spec *workflow.Specification, seed int64) *view.View {
	tb.Helper()
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "grey", Composites: 6, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// paperChainFixture is the paper example's fixture, whose grey-box view is
// the paper's security view.
func paperChainFixture(tb testing.TB, size int, seed int64) chainFixture {
	tb.Helper()
	spec := workloads.PaperExample()
	security, err := workloads.PaperSecurityView(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return newChainFixture(tb, "paper", spec, false, size, seed, security)
}

// product is the reference evaluator: the chain multiplied out left to
// right, transposing flagged factors, with no short-circuit. Factors whose
// dimensions do not conform are an error, as they are for the row form.
func (vl *ViewLabel) product(qc *queryCtx, idx *ItemIndex, ch *decodeChain) (*boolmat.Matrix, error) {
	var result *boolmat.Matrix
	for i := 0; i < ch.n; i++ {
		f, t := ch.at(i)
		m, err := vl.fetch(qc, idx, ch, f)
		if err != nil {
			return nil, err
		}
		if t {
			m = m.Transpose()
		}
		if result == nil {
			result = m
			continue
		}
		if err := conform(result, m); err != nil {
			return nil, err
		}
		result = result.Mul(m)
	}
	return result, nil
}

// rowVec is row r of the chain's product as the decoder reads it: rowTail,
// then rowHead, with no memo in between.
func (vl *ViewLabel) rowVec(qc *queryCtx, idx *ItemIndex, ch *decodeChain, r int) (*boolmat.Matrix, error) {
	w, err := vl.rowTail(qc, idx, ch, r)
	if err != nil {
		return nil, err
	}
	return vl.rowHead(qc, idx, ch, w, r)
}

// TestChainEvaluatorsMatchMatrix holds the vector evaluator to the full
// product on every (source, target) owner pair of small index-built runs,
// visible or not: every row of the product must be rowVec of the chain,
// every column rowVec of the flipped chain, and where the product fails the
// row form must fail in the same errors.Is class. The paper
// example is the only specification whose items use different out-port and
// in-port indices, so it is the one that catches a row/column swap.
func TestChainEvaluatorsMatchMatrix(t *testing.T) {
	bioaid, figure10 := workloads.BioAID(), workloads.Figure10Example()
	fixtures := []chainFixture{
		paperChainFixture(t, 300, 31),
		newChainFixture(t, "bioaid", bioaid, false, 400, 32, greyView(t, bioaid, 33)),
		newChainFixture(t, "figure10-basic", figure10, true, 100, 34, greyView(t, figure10, 35)),
		newChainFixture(t, "bioaid-basic", bioaid, true, 300, 36, greyView(t, bioaid, 37)),
	}
	for _, fx := range fixtures {
		idx := fx.idx
		for _, vl := range fx.vls {
			s := NewQuerySession()
			s.EnsurePlan(idx)
			qc := s.qc
			var matrices, recursive, failures int
			for _, src := range idx.src.groups {
				for _, dst := range idx.dst.groups {
					qc.begin()
					l1, l2 := idx.path(src.node), idx.path(dst.node)
					var ch decodeChain
					if err := vl.mainChain(&ch, src.node, l1, dst.node, l2); err != nil || ch.n == 0 {
						continue
					}
					m, merr := vl.product(qc, idx, &ch)
					flipped := ch
					flipped.flipped = true
					mark := qc.used
					if merr != nil {
						failures++
						for _, c := range []*decodeChain{&ch, &flipped} {
							if _, err := vl.rowVec(qc, idx, c, 0); pointErrClass(err) != pointErrClass(merr) {
								t.Fatalf("%s %s/%s: owners (%d, %d): product fails with %v, rowVec (flipped %v) with %v",
									fx.name, vl.view.Name, vl.variant, src.node, dst.node, merr, c.flipped, err)
							}
							qc.rewind(mark)
						}
						continue
					}
					matrices++
					if ch.recursive {
						recursive++
					}
					for r := 0; r <= m.Rows(); r++ {
						vec, err := vl.rowVec(qc, idx, &ch, r)
						if r == m.Rows() {
							if err == nil {
								t.Fatalf("%s %s/%s: owners (%d, %d): rowVec accepts row %d of a %dx%d matrix",
									fx.name, vl.view.Name, vl.variant, src.node, dst.node, r, m.Rows(), m.Cols())
							}
							break
						}
						if err != nil || vec.Cols() != m.Cols() {
							t.Fatalf("%s %s/%s: owners (%d, %d): row %d: %v, %v", fx.name, vl.view.Name, vl.variant, src.node, dst.node, r, vec, err)
						}
						for c := 0; c < m.Cols(); c++ {
							if vec.Get(0, c) != m.Get(r, c) {
								t.Fatalf("%s %s/%s: owners (%d, %d): row %d is %v, matrix %v", fx.name, vl.view.Name, vl.variant, src.node, dst.node, r, vec, m)
							}
						}
						qc.rewind(mark)
					}
					for c := 0; c < m.Cols(); c++ {
						vec, err := vl.rowVec(qc, idx, &flipped, c)
						if err != nil || vec.Cols() != m.Rows() {
							t.Fatalf("%s %s/%s: owners (%d, %d): column %d: %v, %v", fx.name, vl.view.Name, vl.variant, src.node, dst.node, c, vec, err)
						}
						for r := 0; r < m.Rows(); r++ {
							if vec.Get(0, r) != m.Get(r, c) {
								t.Fatalf("%s %s/%s: owners (%d, %d): column %d is %v, matrix %v", fx.name, vl.view.Name, vl.variant, src.node, dst.node, c, vec, m)
							}
						}
						qc.rewind(mark)
					}
				}
			}
			s.Close()
			if matrices == 0 {
				t.Fatalf("%s %s/%s: no owner pair has a decoding matrix", fx.name, vl.view.Name, vl.variant)
			}
			t.Logf("%s %s/%s: %d matrices (%d of case 2b), %d failing products", fx.name, vl.view.Name, vl.variant, matrices, recursive, failures)
		}
	}
}

// TestScanRowsMatchPointLoop compares DepsRow and RevDepsRow with a
// brute-force DependsOn loop over every item, for sampled targets, under
// every variant of the default and a grey-box view. The runs are large
// enough that groups in a row share a tail key, so the scans answer from
// their memo; the test counts the memo's hits (queryCtx.tailHits) and fails
// if a run has none, or if no run has one of case 2b, whose key also holds
// the group's next edge (at these sizes only the paper example has them). Half the targets are
// the run's most deeply recursive items, whose scans meet the most case-2b
// groups.
func TestScanRowsMatchPointLoop(t *testing.T) {
	const targets = 16
	bioaid := workloads.BioAID()
	all2b := 0
	for _, fx := range []chainFixture{
		paperChainFixture(t, 1000, 41),
		newChainFixture(t, "bioaid", bioaid, false, 1500, 42, greyView(t, bioaid, 43)),
	} {
		idx, n := fx.idx, fx.idx.Items()
		var repeats, repeats2b int
		for _, vl := range fx.vls {
			points, scans := NewQuerySession(), NewQuerySession()
			points.EnsurePlan(nil)
			scans.EnsurePlan(idx)
			scans.qc.tailHits = [2]int{} // a pooled context keeps its count
			var visible []int
			for x := 1; x <= n; x++ {
				if lx, _ := fx.lab.Label(x); vl.Visible(lx) && lx.Out.Present() && lx.In.Present() {
					visible = append(visible, x)
				}
			}
			if len(visible) < targets {
				t.Fatalf("%s %s/%s: only %d intermediate items are visible", fx.name, vl.view.Name, vl.variant, len(visible))
			}
			// Half the targets sit deepest in the recursion, where case 2b
			// splits are; the other half are spread over the run.
			sampled := slices.Clone(visible)
			slices.SortStableFunc(sampled, func(a, b int) int { return cmp.Compare(recursionDepth(fx.lab, b), recursionDepth(fx.lab, a)) })
			sampled = sampled[:targets/2]
			for i := range targets / 2 {
				sampled = append(sampled, visible[i*len(visible)/(targets/2)])
			}
			for _, x := range sampled {
				lx, _ := fx.lab.Label(x)
				for _, deps := range []bool{true, false} {
					scan := scans.RevDepsRow
					if deps {
						scan = scans.DepsRow
					}
					row, err := scan(vl, idx, x)
					if err != nil {
						t.Fatalf("%s %s/%s: scan of %d: %v", fx.name, vl.view.Name, vl.variant, x, err)
					}
					for y := 1; y <= n; y++ {
						ly, _ := fx.lab.Label(y)
						d1, d2 := lx, ly
						if deps {
							d1, d2 = ly, lx
						}
						ok, err := points.DependsOn(vl, d1, d2)
						if want := ok && err == nil; row.Get(0, y) != want {
							t.Fatalf("%s %s/%s: deps=%v of %d: item %d is %v in the scan, point query (%v, %v)",
								fx.name, vl.view.Name, vl.variant, deps, x, y, row.Get(0, y), ok, err)
						}
					}
				}
			}
			repeats += scans.qc.tailHits[0]
			repeats2b += scans.qc.tailHits[1]
			points.Close()
			scans.Close()
		}
		t.Logf("%s: %d groups reused the previous group's tail, %d of them in case 2b", fx.name, repeats, repeats2b)
		if repeats == 0 {
			t.Fatalf("%s: the scans' memo answered no group, so it is not exercised", fx.name)
		}
		all2b += repeats2b
	}
	if all2b == 0 {
		t.Fatal("the scans' memo answered no case-2b group, so its next edge is not exercised")
	}
}

// recursionDepth sums the child positions of the recursive edges on an
// item's two paths: how many unfoldings deep the item sits.
func recursionDepth(lab *RunLabeler, id int) int {
	d, _ := lab.Label(id)
	depth := 0
	for _, e := range append(slices.Clip(d.Out.Path), d.In.Path...) {
		if e.Recursive() {
			depth += e.I()
		}
	}
	return depth
}
