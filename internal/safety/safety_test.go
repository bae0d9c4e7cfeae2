package safety

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/workflow"
)

// chainSpec builds S -> (x, y) with x feeding y, using the given dependency
// matrices for x and y.
func chainSpec(t *testing.T, xDeps, yDeps *boolmat.Matrix) *workflow.Specification {
	t.Helper()
	wb := workflow.NewWorkflow()
	wb.Node("x")
	wb.Node("y")
	wb.Edge("x", 0, "y", 0)
	wb.Edge("x", 1, "y", 1)
	spec, err := workflow.NewBuilder().
		Module("S", 2, 2).
		Module("x", 2, 2).
		Module("y", 2, 2).
		Start("S").
		Production("S", wb).
		DepsMatrix("x", xDeps).
		DepsMatrix("y", yDeps).
		Build()
	if err != nil {
		t.Fatalf("chainSpec: %v", err)
	}
	return spec
}

func diag() *boolmat.Matrix { return boolmat.Identity(2) }
func anti() *boolmat.Matrix {
	m := boolmat.New(2, 2)
	m.Set(0, 1, true)
	m.Set(1, 0, true)
	return m
}

func TestClosureChain(t *testing.T) {
	spec := chainSpec(t, diag(), anti())
	cl, err := NewClosure(spec.Grammar, spec.Grammar.Productions[0].RHS, spec.Deps)
	if err != nil {
		t.Fatal(err)
	}
	// Composition of diagonal then anti-diagonal is anti-diagonal.
	if !cl.LHSMatrix().Equal(anti()) {
		t.Fatalf("LHSMatrix = %v, want anti-diagonal", cl.LHSMatrix())
	}
	// I for node 0 (x) is the identity between W's initial inputs and x's inputs.
	if !cl.InputsTo(0).Equal(boolmat.Identity(2)) {
		t.Fatalf("InputsTo(0) = %v", cl.InputsTo(0))
	}
	// I for node 1 (y): initial input i reaches y's input i (through x's diagonal).
	if !cl.InputsTo(1).Equal(boolmat.Identity(2)) {
		t.Fatalf("InputsTo(1) = %v", cl.InputsTo(1))
	}
	// O for node 1 (y): final output x reachable from y output y0 iff x == y.
	if !cl.OutputsTo(1).Equal(boolmat.Identity(2)) {
		t.Fatalf("OutputsTo(1) = %v", cl.OutputsTo(1))
	}
	// O for node 0 (x): final outputs are y's outputs; y is anti-diagonal, so
	// x's output 0 reaches final output 1 and vice versa.
	if !cl.OutputsTo(0).Equal(anti()) {
		t.Fatalf("OutputsTo(0) = %v", cl.OutputsTo(0))
	}
	// Z between x and y is the data-edge identity.
	if !cl.Between(0, 1).Equal(boolmat.Identity(2)) {
		t.Fatalf("Between(0,1) = %v", cl.Between(0, 1))
	}
	// Z in the wrong direction is empty.
	if !cl.Between(1, 0).IsEmpty() {
		t.Fatalf("Between(1,0) should be empty")
	}
	// Port-level queries.
	in0 := workflow.PortRef{Node: 0, Kind: workflow.InPort, Port: 0}
	out1 := workflow.PortRef{Node: 1, Kind: workflow.OutPort, Port: 1}
	if !cl.ReachablePorts(in0, out1) {
		t.Fatalf("x.in0 should reach y.out1")
	}
	if !cl.ReachablePorts(in0, in0) {
		t.Fatalf("a port should reach itself")
	}
}

func TestClosureMissingDeps(t *testing.T) {
	spec := chainSpec(t, diag(), anti())
	deps := workflow.DependencyAssignment{"x": diag()} // y missing
	if _, err := NewClosure(spec.Grammar, spec.Grammar.Productions[0].RHS, deps); err == nil {
		t.Fatalf("missing dependency matrix accepted")
	}
	bad := workflow.DependencyAssignment{"x": boolmat.New(1, 1), "y": anti()}
	if _, err := NewClosure(spec.Grammar, spec.Grammar.Productions[0].RHS, bad); err == nil {
		t.Fatalf("wrong-dimension dependency matrix accepted")
	}
}

func TestFullAssignmentSimple(t *testing.T) {
	spec := chainSpec(t, diag(), anti())
	res, err := Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Full["S"].Equal(anti()) {
		t.Fatalf("lambda*(S) = %v, want anti-diagonal", res.Full["S"])
	}
	if len(res.Closures) != 1 {
		t.Fatalf("closure count = %d", len(res.Closures))
	}
	if !IsSafe(spec) {
		t.Fatalf("single-production specification must be safe")
	}
}

func TestUnsafeDetection(t *testing.T) {
	// S has two productions inducing different dependencies: S -> (x) with x
	// diagonal and S -> (y) with y anti-diagonal.
	single := func(m string) *workflow.WorkflowBuilder {
		wb := workflow.NewWorkflow()
		wb.Node(m)
		return wb
	}
	spec, err := workflow.NewBuilder().
		Module("S", 2, 2).
		Module("x", 2, 2).
		Module("y", 2, 2).
		Start("S").
		Production("S", single("x")).
		Production("S", single("y")).
		DepsMatrix("x", diag()).
		DepsMatrix("y", anti()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(spec)
	var unsafeErr *UnsafeError
	if !errors.As(err, &unsafeErr) {
		t.Fatalf("expected UnsafeError, got %v", err)
	}
	if unsafeErr.Module != "S" {
		t.Fatalf("conflicting module = %q, want S", unsafeErr.Module)
	}
	if !strings.Contains(unsafeErr.Error(), "unsafe") {
		t.Fatalf("error text: %v", unsafeErr)
	}
	if IsSafe(spec) {
		t.Fatalf("IsSafe must report false")
	}
}

func TestBlackBoxAlwaysSafe(t *testing.T) {
	// Lemma 2: any coarse-grained workflow is safe. Two alternative
	// productions with completely different structure but black-box deps.
	single := func(m string) *workflow.WorkflowBuilder {
		wb := workflow.NewWorkflow()
		wb.Node(m)
		return wb
	}
	chain := func(m1, m2 string) *workflow.WorkflowBuilder {
		wb := workflow.NewWorkflow()
		wb.Node(m1)
		wb.Node(m2)
		wb.Edge(m1, 0, m2, 0)
		wb.Edge(m1, 1, m2, 1)
		return wb
	}
	spec, err := workflow.NewBuilder().
		Module("S", 2, 2).
		Module("x", 2, 2).
		Module("y", 2, 2).
		Start("S").
		Production("S", single("x")).
		Production("S", chain("x", "y")).
		BlackBox("x", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(spec)
	if err != nil {
		t.Fatalf("coarse-grained specification reported unsafe: %v", err)
	}
	if !res.Full["S"].IsFull() {
		t.Fatalf("black-box composition should induce complete dependencies")
	}
}

func TestFullAssignmentMissingBase(t *testing.T) {
	spec := chainSpec(t, diag(), anti())
	delete(spec.Deps, "y")
	if _, err := FullAssignment(spec.Grammar, spec.Deps, Options{}); err == nil {
		t.Fatalf("missing base matrix accepted")
	}
}

func TestFullAssignmentUnknownModuleInBase(t *testing.T) {
	spec := chainSpec(t, diag(), anti())
	spec.Deps["ghost"] = diag()
	if _, err := FullAssignment(spec.Grammar, spec.Deps, Options{}); err == nil {
		t.Fatalf("base matrix for unknown module accepted")
	}
}

func TestFullAssignmentWrongDimensionBase(t *testing.T) {
	spec := chainSpec(t, diag(), anti())
	spec.Deps["y"] = boolmat.Identity(3)
	if _, err := FullAssignment(spec.Grammar, spec.Deps, Options{}); err == nil {
		t.Fatalf("wrong-dimension base matrix accepted")
	}
}

func TestOptionsRestriction(t *testing.T) {
	// With the only production excluded, S itself becomes atomic under the
	// restriction and must be supplied by the base assignment.
	spec := chainSpec(t, diag(), anti())
	deps := spec.Deps.Clone()
	deps["S"] = boolmat.Full(2, 2)
	res, err := FullAssignment(spec.Grammar, deps, Options{Include: func(int) bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Full["S"].IsFull() {
		t.Fatalf("restricted assignment should take S from the base assignment")
	}
	if len(res.Closures) != 0 {
		t.Fatalf("no closures expected for an empty restriction")
	}
}
