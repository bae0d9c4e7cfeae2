package prodgraph

import (
	"strings"
	"testing"

	"repro/internal/workflow"
)

// figure10Grammar reproduces the grammar of Figure 10 of the paper: S is the
// start module with three productions S -> (a, S), S -> (b, S) and S -> (c);
// it is linear-recursive but not strictly linear-recursive because the two
// self-loops share S.
func figure10Grammar(t *testing.T) *workflow.Grammar {
	t.Helper()
	b := workflow.NewBuilder().
		Module("S", 1, 1).
		Module("a", 1, 1).
		Module("b", 1, 1).
		Module("c", 1, 1).
		Start("S")

	recursive := func(atom string) *workflow.WorkflowBuilder {
		wb := workflow.NewWorkflow()
		wb.Node(atom)
		wb.Node("S")
		wb.Edge(atom, 0, "S", 0)
		return wb
	}
	base := workflow.NewWorkflow()
	base.Node("c")

	b.Production("S", recursive("a"))
	b.Production("S", recursive("b"))
	b.Production("S", base)
	g, err := b.Grammar()
	if err != nil {
		t.Fatalf("figure10Grammar: %v", err)
	}
	return g
}

// abLoopGrammar builds a small grammar with a two-module recursion A <-> B
// and a self-loop on D, mirroring the recursive structure of Figure 2:
//
//	S -> (a, A)      A -> (b, B)   A -> (b)     B -> (b, A)
//	S also reaches D through C:  C -> (D)       D -> (c, D)   D -> (c)
func abLoopGrammar(t *testing.T) *workflow.Grammar {
	t.Helper()
	b := workflow.NewBuilder().
		Module("S", 1, 1).
		Module("A", 1, 1).
		Module("B", 1, 1).
		Module("C", 1, 1).
		Module("D", 1, 1).
		Module("a", 1, 1).
		Module("b", 1, 1).
		Module("c", 1, 1).
		Start("S")

	chain := func(first, second string) *workflow.WorkflowBuilder {
		wb := workflow.NewWorkflow()
		wb.Node(first)
		wb.Node(second)
		wb.Edge(first, 0, second, 0)
		return wb
	}
	single := func(m string) *workflow.WorkflowBuilder {
		wb := workflow.NewWorkflow()
		wb.Node(m)
		return wb
	}
	sRHS := workflow.NewWorkflow()
	sRHS.Node("a")
	sRHS.Node("A")
	sRHS.Node("C")
	sRHS.Edge("a", 0, "A", 0)
	sRHS.Edge("A", 0, "C", 0)

	dRec := workflow.NewWorkflow()
	dRec.Node("c")
	dRec.Node("D")
	dRec.Edge("c", 0, "D", 0)

	b.Production("S", sRHS)            // p1: S -> a, A, C
	b.Production("A", chain("b", "B")) // p2: A -> b, B
	b.Production("A", single("b"))     // p3: A -> b
	b.Production("B", chain("b", "A")) // p4: B -> b, A
	b.Production("C", single("D"))     // p5: C -> D  (unit production, no cycle)
	b.Production("D", dRec)            // p6: D -> c, D
	b.Production("D", single("c"))     // p7: D -> c
	g, err := b.Grammar()
	if err != nil {
		t.Fatalf("abLoopGrammar: %v", err)
	}
	return g
}

func TestEdgeNumbering(t *testing.T) {
	g := abLoopGrammar(t)
	pg := New(g)
	// Production 1 is S -> (a, A, C): edge (1,2) must go from S to A.
	e, ok := pg.Edge(1, 2)
	if !ok || e.From != "S" || e.To != "A" {
		t.Fatalf("Edge(1,2) = %+v, %v", e, ok)
	}
	if _, ok := pg.Edge(99, 1); ok {
		t.Fatalf("nonexistent edge reported present")
	}
	if len(pg.Edges()) != 3+2+1+2+1+2+1 {
		t.Fatalf("edge count = %d", len(pg.Edges()))
	}
	if pg.Size() != len(pg.Modules())+len(pg.Edges()) {
		t.Fatalf("Size inconsistent")
	}
	if !strings.Contains(e.String(), "(1,2)") {
		t.Fatalf("Edge.String = %q", e.String())
	}
}

func TestReachability(t *testing.T) {
	pg := New(abLoopGrammar(t))
	cases := []struct {
		from, to string
		want     bool
	}{
		{"S", "S", true}, // reflexive
		{"S", "A", true},
		{"S", "c", true},
		{"A", "B", true},
		{"B", "A", true},
		{"A", "S", false},
		{"D", "D", true},
		{"C", "D", true},
		{"D", "C", false},
		{"a", "b", false},
	}
	for _, c := range cases {
		if got := pg.Reachable(c.from, c.to); got != c.want {
			t.Errorf("Reachable(%s,%s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestRecursiveModules(t *testing.T) {
	pg := New(abLoopGrammar(t))
	for _, m := range []string{"A", "B", "D"} {
		if !pg.IsRecursive(m) {
			t.Errorf("%s should be recursive", m)
		}
	}
	for _, m := range []string{"S", "C", "a", "b", "c"} {
		if pg.IsRecursive(m) {
			t.Errorf("%s should not be recursive", m)
		}
	}
}

func TestCyclesEnumeration(t *testing.T) {
	pg := New(abLoopGrammar(t))
	if !pg.IsLinearRecursive() {
		t.Fatalf("grammar should be linear-recursive")
	}
	if !pg.IsStrictlyLinearRecursive() {
		t.Fatalf("grammar should be strictly linear-recursive")
	}
	if !pg.IsStrictlyLinearRecursiveSearch() {
		t.Fatalf("search-based strictness check disagrees")
	}
	cycles, err := pg.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 {
		t.Fatalf("cycle count = %d, want 2", len(cycles))
	}
	// Cycles are ordered by smallest module name: the A<->B cycle first, then
	// the D self-loop.
	if cycles[0].Modules[0] != "A" || cycles[0].Len() != 2 {
		t.Fatalf("cycle 1 = %+v", cycles[0])
	}
	if cycles[1].Modules[0] != "D" || cycles[1].Len() != 1 {
		t.Fatalf("cycle 2 = %+v", cycles[1])
	}
	// The A<->B cycle consists of edge (2,2) A->B and edge (4,2) B->A, exactly
	// as in Example 12 of the paper.
	if e := cycles[0].Edges[0]; e.K != 2 || e.I != 2 || e.To != "B" {
		t.Fatalf("first cycle edge = %+v", e)
	}
	if e := cycles[0].Edges[1]; e.K != 4 || e.I != 2 || e.To != "A" {
		t.Fatalf("second cycle edge = %+v", e)
	}
	// Wraparound indexing.
	if cycles[0].EdgeAt(3) != cycles[0].Edges[0] {
		t.Fatalf("EdgeAt wraparound broken")
	}

	s, pos, ok := pg.CycleOf("B")
	if !ok || s != 1 || pos != 2 {
		t.Fatalf("CycleOf(B) = (%d,%d,%v)", s, pos, ok)
	}
	if _, _, ok := pg.CycleOf("S"); ok {
		t.Fatalf("CycleOf(S) should report not recursive")
	}
}

func TestFigure10IsLinearButNotStrict(t *testing.T) {
	pg := New(figure10Grammar(t))
	if !pg.IsLinearRecursive() {
		t.Fatalf("Figure 10 grammar should be linear-recursive")
	}
	if pg.IsStrictlyLinearRecursive() {
		t.Fatalf("Figure 10 grammar must not be strictly linear-recursive")
	}
	if pg.IsStrictlyLinearRecursiveSearch() {
		t.Fatalf("search-based check disagrees on Figure 10 grammar")
	}
	if _, err := pg.Cycles(); err == nil {
		t.Fatalf("Cycles should fail for a non-strict grammar")
	}
	if _, _, ok := pg.CycleOf("S"); ok {
		t.Fatalf("CycleOf should fail for a non-strict grammar")
	}
}

func TestForkOverRecursionStillLinear(t *testing.T) {
	// S -> (A, A) where A recurses only through itself: A never derives two
	// instances of A, so by Definition 14 the grammar is linear-recursive
	// (and strictly so) even though two A-subtrees run in parallel.
	b := workflow.NewBuilder().
		Module("S", 2, 2).
		Module("A", 1, 1).
		Module("a", 1, 1).
		Start("S")
	rhs := workflow.NewWorkflow()
	rhs.Node("A", "A1")
	rhs.Node("A", "A2")
	b.Production("S", rhs)
	aRec := workflow.NewWorkflow()
	aRec.Node("a")
	aRec.Node("A")
	aRec.Edge("a", 0, "A", 0)
	b.Production("A", aRec)
	aBase := workflow.NewWorkflow()
	aBase.Node("a")
	b.Production("A", aBase)
	g, err := b.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	pg := New(g)
	if !pg.IsLinearRecursive() {
		t.Fatalf("forking over a self-recursive module keeps the grammar linear-recursive")
	}
	if !pg.IsStrictlyLinearRecursive() || !pg.IsStrictlyLinearRecursiveSearch() {
		t.Fatalf("the single A self-loop is vertex-disjoint")
	}
}

func TestNonLinearGrammarDetected(t *testing.T) {
	// A -> (split, A, A, join): A derives workflows with two instances of
	// itself, so the grammar is neither linear-recursive nor strictly
	// linear-recursive (the two parallel self-loop edges share the vertex A).
	b := workflow.NewBuilder().
		Module("S", 2, 1).
		Module("A", 2, 1).
		Module("split", 2, 4).
		Module("join", 2, 1).
		Module("leaf", 2, 1).
		Start("S")
	sRHS := workflow.NewWorkflow()
	sRHS.Node("A")
	b.Production("S", sRHS)
	aRec := workflow.NewWorkflow()
	aRec.Node("split")
	aRec.Node("A", "A1")
	aRec.Node("A", "A2")
	aRec.Node("join")
	aRec.Edge("split", 0, "A1", 0)
	aRec.Edge("split", 1, "A1", 1)
	aRec.Edge("split", 2, "A2", 0)
	aRec.Edge("split", 3, "A2", 1)
	aRec.Edge("A1", 0, "join", 0)
	aRec.Edge("A2", 0, "join", 1)
	b.Production("A", aRec)
	aBase := workflow.NewWorkflow()
	aBase.Node("leaf")
	b.Production("A", aBase)
	g, err := b.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	pg := New(g)
	if pg.IsLinearRecursive() {
		t.Fatalf("binary recursion must not be linear-recursive")
	}
	if pg.IsStrictlyLinearRecursive() || pg.IsStrictlyLinearRecursiveSearch() {
		t.Fatalf("binary recursion must not be strictly linear-recursive")
	}
	if _, err := pg.Cycles(); err == nil {
		t.Fatalf("Cycles should fail for binary recursion")
	}
}

func TestNonRecursiveGrammarHasNoCycles(t *testing.T) {
	b := workflow.NewBuilder().
		Module("S", 1, 1).
		Module("a", 1, 1).
		Start("S")
	rhs := workflow.NewWorkflow()
	rhs.Node("a")
	b.Production("S", rhs)
	g, err := b.Grammar()
	if err != nil {
		t.Fatal(err)
	}
	pg := New(g)
	cycles, err := pg.Cycles()
	if err != nil || len(cycles) != 0 {
		t.Fatalf("Cycles = %v, %v", cycles, err)
	}
	if !pg.IsLinearRecursive() || !pg.IsStrictlyLinearRecursive() {
		t.Fatalf("non-recursive grammar is trivially (strictly) linear-recursive")
	}
}
