package workflow

import (
	"strings"
	"testing"

	"repro/internal/boolmat"
)

// tinySpec builds a minimal two-level specification:
//
//	S -> W(a, b)   with a feeding b
//	a, b atomic
func tinySpec(t *testing.T) *Specification {
	t.Helper()
	wb := NewWorkflow()
	wb.Node("a")
	wb.Node("b")
	wb.Edge("a", 0, "b", 0)
	spec, err := NewBuilder().
		Module("S", 1, 1).
		Module("a", 1, 1).
		Module("b", 1, 1).
		Start("S").
		Production("S", wb).
		BlackBox("a", "b").
		Build()
	if err != nil {
		t.Fatalf("tinySpec: %v", err)
	}
	return spec
}

func TestModuleValidate(t *testing.T) {
	if err := (Module{Name: "m", In: 1, Out: 2}).Validate(); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
	if err := (Module{Name: "", In: 1, Out: 1}).Validate(); err == nil {
		t.Fatalf("empty name accepted")
	}
	if err := (Module{Name: "m", In: -1, Out: 1}).Validate(); err == nil {
		t.Fatalf("negative port count accepted")
	}
}

func TestPortKindString(t *testing.T) {
	if InPort.String() != "in" || OutPort.String() != "out" {
		t.Fatalf("PortKind strings wrong")
	}
	ref := PortRef{Node: 2, Kind: InPort, Port: 0}
	if got := ref.String(); got != "node[2].in[0]" {
		t.Fatalf("PortRef.String = %q", got)
	}
}

func TestTinySpecValidates(t *testing.T) {
	spec := tinySpec(t)
	if got := spec.Grammar.Composites(); len(got) != 1 || got[0] != "S" {
		t.Fatalf("Composites = %v", got)
	}
	atomics := spec.Grammar.Atomics()
	if len(atomics) != 2 || atomics[0] != "a" || atomics[1] != "b" {
		t.Fatalf("Atomics = %v", atomics)
	}
	if !spec.Grammar.IsComposite("S") || spec.Grammar.IsComposite("a") {
		t.Fatalf("IsComposite misclassifies")
	}
	if got := spec.Grammar.ProductionsFor("S"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ProductionsFor(S) = %v", got)
	}
	if !spec.IsCoarseGrained() {
		t.Fatalf("tiny black-box chain should be coarse-grained")
	}
}

func TestInitialAndFinalPortEnumeration(t *testing.T) {
	spec := tinySpec(t)
	w := spec.Grammar.Productions[0].RHS
	ins, err := w.InitialInputs(spec.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := w.FinalOutputs(spec.Grammar)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || ins[0] != (PortRef{Node: 0, Kind: InPort, Port: 0}) {
		t.Fatalf("InitialInputs = %v", ins)
	}
	if len(outs) != 1 || outs[0] != (PortRef{Node: 1, Kind: OutPort, Port: 0}) {
		t.Fatalf("FinalOutputs = %v", outs)
	}
}

func TestValidateRejectsArityMismatch(t *testing.T) {
	wb := NewWorkflow()
	wb.Node("a")
	_, err := NewBuilder().
		Module("S", 2, 1). // S has 2 inputs but the RHS exposes only 1 initial input
		Module("a", 1, 1).
		Start("S").
		Production("S", wb).
		BlackBox("a").
		Build()
	if err == nil || !strings.Contains(err.Error(), "initial inputs") {
		t.Fatalf("expected arity mismatch error, got %v", err)
	}
}

func TestValidateRejectsAdjacentDataEdges(t *testing.T) {
	// Two edges out of the same output port violate pairwise non-adjacency.
	wb := NewWorkflow()
	wb.Node("a")
	wb.Node("b")
	wb.Node("b", "b2")
	wb.Edge("a", 0, "b", 0)
	wb.Edge("a", 0, "b2", 0)
	g := &Grammar{
		Modules: map[string]Module{
			"S": {Name: "S", In: 1, Out: 2},
			"a": {Name: "a", In: 1, Out: 1},
			"b": {Name: "b", In: 1, Out: 1},
		},
		Start:       "S",
		Productions: []Production{{LHS: "S", RHS: &wb.wf}},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "more than one data edge") {
		t.Fatalf("expected non-adjacency violation, got %v", err)
	}
}

func TestValidateRejectsCyclicWorkflow(t *testing.T) {
	w := &SimpleWorkflow{
		Nodes: []string{"a", "a"},
		Edges: []DataEdge{
			{FromNode: 0, FromPort: 0, ToNode: 1, ToPort: 0},
			{FromNode: 1, FromPort: 0, ToNode: 0, ToPort: 0},
		},
	}
	if _, err := w.Normalize(); err == nil {
		t.Fatalf("Normalize accepted a cyclic workflow")
	}
}

func TestValidateRejectsUnknownModule(t *testing.T) {
	wb := NewWorkflow()
	wb.Node("ghost")
	g := &Grammar{
		Modules:     map[string]Module{"S": {Name: "S", In: 0, Out: 0}},
		Start:       "S",
		Productions: []Production{{LHS: "S", RHS: &wb.wf}},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown module") {
		t.Fatalf("expected unknown module error, got %v", err)
	}
}

func TestNormalizeReordersTopologically(t *testing.T) {
	// b listed before a, but a feeds b.
	w := &SimpleWorkflow{
		Nodes: []string{"b", "a"},
		Edges: []DataEdge{{FromNode: 1, FromPort: 0, ToNode: 0, ToPort: 0}},
	}
	if w.IsTopologicallyOrdered() {
		t.Fatalf("unordered workflow reported as ordered")
	}
	n, err := w.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsTopologicallyOrdered() {
		t.Fatalf("Normalize did not produce a topological order")
	}
	if n.Nodes[0] != "a" || n.Nodes[1] != "b" {
		t.Fatalf("Normalize order = %v", n.Nodes)
	}
	if n.Edges[0].FromNode != 0 || n.Edges[0].ToNode != 1 {
		t.Fatalf("Normalize did not remap edges: %+v", n.Edges[0])
	}
}

func TestProperDetectsUnderivable(t *testing.T) {
	// T is composite but never reachable from S.
	wbS := NewWorkflow()
	wbS.Node("a")
	wbT := NewWorkflow()
	wbT.Node("a")
	g := &Grammar{
		Modules: map[string]Module{
			"S": {Name: "S", In: 1, Out: 1},
			"T": {Name: "T", In: 1, Out: 1},
			"a": {Name: "a", In: 1, Out: 1},
		},
		Start: "S",
		Productions: []Production{
			{LHS: "S", RHS: &wbS.wf},
			{LHS: "T", RHS: &wbT.wf},
		},
	}
	err := g.CheckProper()
	v, ok := err.(*ProperViolation)
	if !ok || v.Kind != "underivable" || v.Module != "T" {
		t.Fatalf("CheckProper = %v, want underivable T", err)
	}
}

func TestProperDetectsUnproductive(t *testing.T) {
	// S -> (A) and A -> (A): A can never derive an all-atomic workflow.
	wbS := NewWorkflow()
	wbS.Node("A")
	wbA := NewWorkflow()
	wbA.Node("A")
	g := &Grammar{
		Modules: map[string]Module{
			"S": {Name: "S", In: 1, Out: 1},
			"A": {Name: "A", In: 1, Out: 1},
		},
		Start: "S",
		Productions: []Production{
			{LHS: "S", RHS: &wbS.wf},
			{LHS: "A", RHS: &wbA.wf},
		},
	}
	err := g.CheckProper()
	v, ok := err.(*ProperViolation)
	if !ok || v.Kind != "unproductive" {
		t.Fatalf("CheckProper = %v, want unproductive", err)
	}
}

func TestProperDetectsUnitCycle(t *testing.T) {
	// A -> (B), B -> (A) are unit productions forming a cycle; both can also
	// derive an atomic a so they are productive.
	wbSA := NewWorkflow()
	wbSA.Node("A")
	wbAB := NewWorkflow()
	wbAB.Node("B")
	wbBA := NewWorkflow()
	wbBA.Node("A")
	wbAa := NewWorkflow()
	wbAa.Node("a")
	g := &Grammar{
		Modules: map[string]Module{
			"S": {Name: "S", In: 1, Out: 1},
			"A": {Name: "A", In: 1, Out: 1},
			"B": {Name: "B", In: 1, Out: 1},
			"a": {Name: "a", In: 1, Out: 1},
		},
		Start: "S",
		Productions: []Production{
			{LHS: "S", RHS: &wbSA.wf},
			{LHS: "A", RHS: &wbAB.wf},
			{LHS: "B", RHS: &wbBA.wf},
			{LHS: "A", RHS: &wbAa.wf},
		},
	}
	err := g.CheckProper()
	v, ok := err.(*ProperViolation)
	if !ok || v.Kind != "cycle" {
		t.Fatalf("CheckProper = %v, want unit cycle", err)
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error text should mention cycle: %v", err)
	}
}

func TestDependencyAssignmentValidation(t *testing.T) {
	mods := []Module{{Name: "m", In: 2, Out: 2}}

	ok := DependencyAssignment{"m": boolmat.FromRows([][]bool{{true, false}, {false, true}})}
	if err := ok.ValidateFor(mods); err != nil {
		t.Fatalf("diagonal deps rejected: %v", err)
	}

	missing := DependencyAssignment{}
	if err := missing.ValidateFor(mods); err == nil {
		t.Fatalf("missing module accepted")
	}

	wrongDims := DependencyAssignment{"m": boolmat.New(1, 2)}
	if err := wrongDims.ValidateFor(mods); err == nil {
		t.Fatalf("wrong dimensions accepted")
	}

	danglingInput := DependencyAssignment{"m": boolmat.FromRows([][]bool{{true, true}, {false, false}})}
	if err := danglingInput.ValidateFor(mods); err == nil {
		t.Fatalf("input contributing to no output accepted")
	}

	danglingOutput := DependencyAssignment{"m": boolmat.FromRows([][]bool{{true, false}, {true, false}})}
	if err := danglingOutput.ValidateFor(mods); err == nil {
		t.Fatalf("output depending on no input accepted")
	}
}

func TestDependencyAssignmentCloneIsDeep(t *testing.T) {
	d := DependencyAssignment{"m": boolmat.Identity(2)}
	c := d.Clone()
	c["m"].Set(0, 1, true)
	if d["m"].Get(0, 1) {
		t.Fatalf("Clone shares matrix storage")
	}
	if mods := d.Modules(); len(mods) != 1 || mods[0] != "m" {
		t.Fatalf("Modules = %v", mods)
	}
	if _, ok := d.Get("m"); !ok {
		t.Fatalf("Get failed")
	}
	d.Set("x", boolmat.Identity(1))
	if _, ok := d.Get("x"); !ok {
		t.Fatalf("Set/Get failed")
	}
}

func TestSpecificationCloneIsDeep(t *testing.T) {
	spec := tinySpec(t)
	clone := spec.Clone()
	clone.Grammar.Modules["zzz"] = Module{Name: "zzz", In: 1, Out: 1}
	if _, ok := spec.Grammar.Modules["zzz"]; ok {
		t.Fatalf("Clone shares the module map")
	}
	clone.Deps["a"].Set(0, 0, false)
	if !spec.Deps["a"].Get(0, 0) {
		t.Fatalf("Clone shares dependency matrices")
	}
}

func TestIsCoarseGrainedRejectsFineDeps(t *testing.T) {
	wb := NewWorkflow()
	wb.Node("a")
	wb.Node("b")
	wb.Edge("a", 0, "b", 0)
	spec, err := NewBuilder().
		Module("S", 2, 1).
		Module("a", 2, 1).
		Module("b", 1, 1).
		Start("S").
		Production("S", func() *WorkflowBuilder {
			w := NewWorkflow()
			w.Node("a")
			w.Node("b")
			w.Edge("a", 0, "b", 0)
			return w
		}()).
		Deps("a", [2]int{0, 0}, [2]int{1, 0}).
		BlackBox("b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsCoarseGrained() {
		t.Fatalf("complete deps on all atomics should be coarse-grained")
	}
	// Now make a's deps genuinely partial: a has 2 inputs, 1 output; complete
	// means both inputs feed the output. Using only one input is not allowed
	// by Definition 6 validation, so instead swap in a fine-grained module
	// with 2 outputs.
	spec2, err := NewBuilder().
		Module("S", 1, 2).
		Module("a", 1, 2).
		Start("S").
		Production("S", func() *WorkflowBuilder {
			w := NewWorkflow()
			w.Node("a")
			return w
		}()).
		Deps("a", [2]int{0, 0}, [2]int{0, 1}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !spec2.IsCoarseGrained() {
		t.Fatalf("1-input module with complete deps is coarse-grained")
	}
}

func TestIsCoarseGrainedRejectsMultiSourceRHS(t *testing.T) {
	// Two parallel atomic nodes: two sources and two sinks.
	wb := NewWorkflow()
	wb.Node("a")
	wb.Node("a", "a2")
	spec, err := NewBuilder().
		Module("S", 2, 2).
		Module("a", 1, 1).
		Start("S").
		Production("S", wb).
		BlackBox("a").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if spec.IsCoarseGrained() {
		t.Fatalf("multi-source/multi-sink RHS must not be coarse-grained (Definition 8)")
	}
}

func TestBuilderErrorPaths(t *testing.T) {
	if _, err := NewBuilder().Module("S", 1, 1).Module("S", 2, 2).Start("S").Grammar(); err == nil {
		t.Fatalf("redeclaration with different arity accepted")
	}
	if _, err := NewBuilder().Start("S").Grammar(); err == nil {
		t.Fatalf("undeclared start module accepted")
	}
	if _, err := NewBuilder().Module("S", 1, 1).Start("S").Deps("ghost").Grammar(); err == nil {
		t.Fatalf("deps for undeclared module accepted")
	}
	if _, err := NewBuilder().Module("S", 1, 1).Start("S").Deps("S", [2]int{5, 5}).Grammar(); err == nil {
		t.Fatalf("out-of-range dependency accepted")
	}
}

func TestWorkflowBuilderReportsBadOccurrenceLabels(t *testing.T) {
	// An unknown label, or a label declared twice, fails the build with an
	// error naming it — no panic, and no edge silently bound to the last
	// occurrence.
	build := func(wb *WorkflowBuilder) error {
		_, err := NewBuilder().
			Module("S", 1, 1).
			Module("a", 1, 1).
			Start("S").
			Production("S", wb).
			BlackBox("a").
			Build()
		return err
	}
	cases := []struct {
		name, want string
		wb         *WorkflowBuilder
	}{
		{"unknown", `unknown occurrence "missing"`, NewWorkflow().Node("a").Edge("a", 0, "missing", 0)},
		{"reused label", `ambiguous occurrence "x"`, NewWorkflow().Node("a", "x").Node("a", "x").Edge("x", 0, "x", 0)},
		{"reused module", `ambiguous occurrence "a"`, NewWorkflow().Node("a").Node("a").Edge("a", 0, "a", 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := build(tc.wb)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `production "S"`) {
				t.Fatalf("got %v, want an error naming production \"S\" and %s", err, tc.want)
			}
		})
	}
	// Distinct labels for repeated modules keep working.
	if err := build(NewWorkflow().Node("a", "first").Node("a", "second").Edge("first", 0, "second", 0)); err != nil {
		t.Fatalf("distinct labels: %v", err)
	}
}

func TestGrammarCloneIsDeep(t *testing.T) {
	spec := tinySpec(t)
	g := spec.Grammar
	c := g.Clone()
	c.Productions[0].RHS.Nodes[0] = "mutated"
	if g.Productions[0].RHS.Nodes[0] == "mutated" {
		t.Fatalf("Clone shares RHS workflows")
	}
}
