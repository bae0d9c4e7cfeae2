package core

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/prodgraph"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// TestEdgeLabelPacks: an edge label takes at most 8 bytes, and its
// accessors give back what the constructors took, at the extremes of every
// field.
func TestEdgeLabelPacks(t *testing.T) {
	if size := unsafe.Sizeof(EdgeLabel{}); size > 8 {
		t.Fatalf("EdgeLabel takes %d bytes, want at most 8", size)
	}
	e := NonRecursiveEdge(MaxEdgeIndex, MaxEdgeChild)
	if e.Recursive() || e.K() != MaxEdgeIndex || e.T() != 0 || e.I() != MaxEdgeChild {
		t.Fatalf("NonRecursiveEdge(%d, %d) reads back as %v", MaxEdgeIndex, MaxEdgeChild, e)
	}
	r := RecursiveEdge(MaxEdgeIndex, MaxEdgeOffset, MaxEdgeChild)
	if !r.Recursive() || r.S() != MaxEdgeIndex || r.T() != MaxEdgeOffset || r.I() != MaxEdgeChild {
		t.Fatalf("RecursiveEdge(%d, %d, %d) reads back as %v", MaxEdgeIndex, MaxEdgeOffset, MaxEdgeChild, r)
	}
	if NonRecursiveEdge(1, 2) == RecursiveEdge(1, 0, 2) {
		t.Fatal("a recursive and a non-recursive edge compare equal")
	}
	for _, build := range []func(){
		func() { NonRecursiveEdge(MaxEdgeIndex+1, 1) },
		func() { NonRecursiveEdge(1, MaxEdgeChild+1) },
		func() { RecursiveEdge(MaxEdgeIndex+1, 1, 1) },
		func() { RecursiveEdge(1, MaxEdgeOffset+1, 1) },
		func() { RecursiveEdge(1, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a constructor accepted a value past its field")
				}
			}()
			build()
		}()
	}
}

// TestSchemeRefusesTooWideEdgeValues: a specification whose production
// count or cycle length outgrows an edge label's field is refused when the
// scheme is built (checkWidths, which NewScheme and NewSchemeBasic run), not
// truncated when a run is labeled. The grammars are only as real as the
// check reads them: building a valid specification of 65,536 productions
// takes most of a minute.
func TestSchemeRefusesTooWideEdgeValues(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWidths(spec, scheme.Cycles); err != nil {
		t.Fatalf("the paper example: %v", err)
	}
	rhs := &workflow.SimpleWorkflow{Nodes: []string{"A"}}
	many := &workflow.Specification{Grammar: &workflow.Grammar{Productions: make([]workflow.Production, MaxEdgeIndex+1)}}
	for k := range many.Grammar.Productions {
		many.Grammar.Productions[k] = workflow.Production{LHS: "S", RHS: rhs}
	}
	long := []prodgraph.Cycle{{Index: 1, Edges: make([]prodgraph.Edge, MaxEdgeOffset+1)}}
	for name, c := range map[string]struct {
		spec   *workflow.Specification
		cycles []prodgraph.Cycle
	}{
		"productions":  {many, nil},
		"cycle length": {spec, long},
	} {
		if err := checkWidths(c.spec, c.cycles); err == nil || !strings.Contains(err.Error(), "do not fit an edge label") {
			t.Errorf("%s past an edge label's field: %v, want a refusal", name, err)
		}
	}
}

// TestCodecRefusesTooWideChildPosition: a decoded child position past what
// an edge label holds is refused, not truncated.
func TestCodecRefusesTooWideChildPosition(t *testing.T) {
	scheme, err := NewScheme(workloads.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	c := scheme.Codec()
	encode := func(i uint64) ([]byte, int) {
		w := &bitWriter{}
		w.writeBits(1, 2) // an initial input
		w.writeGamma(2)   // one edge
		w.writeBit(0)     // non-recursive
		w.writeBits(1, c.kBits)
		w.writeGamma(i)
		w.writeBits(0, c.portBits)
		return w.buf, w.len()
	}
	if d, err := c.Decode(encode(MaxEdgeChild)); err != nil || d.In.Path[0].I() != MaxEdgeChild {
		t.Fatalf("child position %d: Decode = %v, %v", uint64(MaxEdgeChild), d, err)
	}
	if _, err := c.Decode(encode(MaxEdgeChild + 1)); err == nil || !strings.Contains(err.Error(), "does not fit an edge label") {
		t.Fatalf("child position %d: Decode = %v, want a refusal", uint64(MaxEdgeChild)+1, err)
	}
}

// TestIndexedPointsMatchLabelPoints: a point query resolved through the item
// index answers exactly as the one on the two labels, errors.Is class
// included, on BioAID and on the paper example, under every variant.
func TestIndexedPointsMatchLabelPoints(t *testing.T) {
	for _, fx := range []indexFixture{
		newIndexFixture(t, "bioaid", workloads.BioAID(), 600, 31),
		newIndexFixture(t, "paper", workloads.PaperExample(), 600, 32),
	} {
		t.Run(fx.name, func(t *testing.T) {
			n := fx.lab.Count()
			idx := BuildItemIndex(0, n, fx.lab.Label)
			defaultVL, err := fx.lab.scheme.LabelView(view.Default(fx.lab.scheme.Spec), VariantDefault)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(33))
			answered := 0
			for _, vl := range append(fx.vls, defaultVL) {
				indexed, labels := NewQuerySession(), NewQuerySession()
				indexed.EnsurePlan(idx)
				for range 3000 {
					a, b := 1+rng.Intn(n), 1+rng.Intn(n)
					got, gerr := indexed.DependsOnIndexed(vl, idx, a, b)
					la, _ := fx.lab.Label(a)
					lb, _ := fx.lab.Label(b)
					want, werr := labels.DependsOn(vl, la, lb)
					if got != want || pointErrClass(gerr) != pointErrClass(werr) {
						t.Fatalf("%s/%v (%d, %d): indexed (%v, %v), labels (%v, %v)", vl.view.Name, vl.Variant(), a, b, got, gerr, want, werr)
					}
					if werr == nil {
						answered++
					}
				}
				indexed.Close()
				labels.Close()
			}
			if _, err := NewQuerySession().DependsOnIndexed(defaultVL, idx, n+1, 1); !errors.Is(err, faults.ErrUnknownItem) {
				t.Fatalf("item %d past the index: %v, want ErrUnknownItem", n+1, err)
			}
			if answered == 0 {
				t.Fatal("no query was answered without an error")
			}
		})
	}
}

// TestLabelerRefusesRecursionIndexOverflow: a step that would continue a
// recursion past the largest child position an edge label holds fails
// instead of wrapping the index. The parent's recursion index is set to the
// largest one by hand, since no run grows 2^32 unfoldings.
func TestLabelerRefusesRecursionIndexOverflow(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 200, Rand: rand.New(rand.NewSource(41))})
	if err != nil {
		t.Fatal(err)
	}
	l := scheme.NewRunLabeler()
	if err := l.OnInit(spec); err != nil {
		t.Fatal(err)
	}
	for i := range r.Steps {
		step := &r.Steps[i]
		if slices.Contains(scheme.placements(step.Prod), 0) {
			last := l.ends[step.Instance+1] - 1
			e := l.edges[last]
			l.edges[last] = RecursiveEdge(e.S(), e.T(), MaxEdgeChild)
			if err := l.OnStep(step); err == nil || !strings.Contains(err.Error(), "outgrows an edge label") {
				t.Fatalf("step %d continues a recursion at index %d: OnStep = %v, want a refusal", i, uint64(MaxEdgeChild), err)
			}
			return
		}
		if err := l.OnStep(step); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("the run continues no recursion")
}

// TestComparePathsIsLexicographic checks comparePaths against an edge by
// edge comparison of the fields t, ks and i, on random paths over a few
// edges, so that equal prefixes are common, both recursive and not.
func TestComparePathsIsLexicographic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := []EdgeLabel{
		NonRecursiveEdge(1, 1), NonRecursiveEdge(1, 2), NonRecursiveEdge(2, 1), NonRecursiveEdge(MaxEdgeIndex, MaxEdgeChild),
		RecursiveEdge(1, 1, 1), RecursiveEdge(1, 2, 1), RecursiveEdge(2, 1, 3), RecursiveEdge(1, MaxEdgeOffset, 2),
	}
	path := func() []EdgeLabel {
		p := make([]EdgeLabel, rng.Intn(4))
		for i := range p {
			p[i] = edges[rng.Intn(len(edges))]
		}
		return p
	}
	byFields := func(x, y EdgeLabel) int {
		switch {
		case x.t != y.t:
			return cmp.Compare(x.t, y.t)
		case x.ks != y.ks:
			return cmp.Compare(x.ks, y.ks)
		}
		return cmp.Compare(x.i, y.i)
	}
	for range 20000 {
		a, b := path(), path()
		if got, want := comparePaths(a, b), slices.CompareFunc(a, b, byFields); got != want {
			t.Fatalf("comparePaths(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}
