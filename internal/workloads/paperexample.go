// Package workloads provides the workflow specifications, views and run
// generators used by the tests, examples and the experiment harness: the
// paper's running example (Figures 2-5), a BioAID-like real-life workflow
// (Section 6.1), the synthetic workflow family of Figure 26, and random
// derivations and safe views.
package workloads

import (
	"fmt"

	"repro/internal/view"
	"repro/internal/workflow"
)

// PaperExample builds the running example of the paper (Figure 2): a strictly
// linear-recursive grammar with composite modules S, A, B, C, D, E and atomic
// modules a..f, with the recursions A <-> B and D -> D, and a fine-grained
// dependency assignment. The figure's exact port counts and wirings are not
// published in machine-readable form, so the concrete workflow below is a
// self-consistent reconstruction that preserves every property the paper
// states about the example: the production set p1..p8 with the same
// right-hand-side module sequences, the two production-graph cycles
// C(1) = {(2,2),(4,2)} and C(2) = {(6,2)} (Example 12), safety with a
// non-trivial full dependency assignment (Example 10), and grey-box views
// whose answers differ from the default view (Example 8).
func PaperExample() *workflow.Specification {
	b := workflow.NewBuilder().
		Module("S", 2, 2).
		Module("A", 2, 2).
		Module("B", 2, 2).
		Module("C", 2, 2).
		Module("D", 2, 2).
		Module("E", 2, 2).
		Module("a", 1, 1).
		Module("b", 1, 2).
		Module("c", 2, 1).
		Module("d", 2, 2).
		Module("e", 2, 2).
		Module("f", 2, 2).
		Start("S")

	// p1: S -> W1 = (a, b, A, C, c, d)
	w1 := workflow.NewWorkflow()
	w1.Node("a")
	w1.Node("b")
	w1.Node("A")
	w1.Node("C")
	w1.Node("c")
	w1.Node("d")
	w1.Edge("a", 0, "A", 0)
	w1.Edge("b", 0, "A", 1)
	w1.Edge("b", 1, "C", 1)
	w1.Edge("A", 0, "C", 0)
	w1.Edge("A", 1, "c", 0)
	w1.Edge("C", 0, "c", 1)
	w1.Edge("C", 1, "d", 0)
	w1.Edge("c", 0, "d", 1)
	b.Production("S", w1)

	// p2: A -> W2 = (d, B, C)
	w2 := workflow.NewWorkflow()
	w2.Node("d")
	w2.Node("B")
	w2.Node("C")
	w2.Edge("d", 0, "B", 0)
	w2.Edge("d", 1, "B", 1)
	w2.Edge("B", 0, "C", 0)
	w2.Edge("B", 1, "C", 1)
	b.Production("A", w2)

	// p3: A -> W3 = (e, C)
	w3 := workflow.NewWorkflow()
	w3.Node("e")
	w3.Node("C")
	w3.Edge("e", 0, "C", 0)
	w3.Edge("e", 1, "C", 1)
	b.Production("A", w3)

	// p4: B -> W4 = (e, A)
	w4 := workflow.NewWorkflow()
	w4.Node("e")
	w4.Node("A")
	w4.Edge("e", 0, "A", 0)
	w4.Edge("e", 1, "A", 1)
	b.Production("B", w4)

	// p5: C -> W5 = (b, D, E, c)
	w5 := workflow.NewWorkflow()
	w5.Node("b")
	w5.Node("D")
	w5.Node("E")
	w5.Node("c")
	w5.Edge("b", 0, "D", 1)
	w5.Edge("b", 1, "E", 0)
	w5.Edge("D", 0, "E", 1)
	w5.Edge("D", 1, "c", 0)
	w5.Edge("E", 0, "c", 1)
	b.Production("C", w5)

	// p6: D -> W6 = (f, D)
	w6 := workflow.NewWorkflow()
	w6.Node("f")
	w6.Node("D")
	w6.Edge("f", 0, "D", 0)
	w6.Edge("f", 1, "D", 1)
	b.Production("D", w6)

	// p7: D -> W7 = (f)
	w7 := workflow.NewWorkflow()
	w7.Node("f")
	b.Production("D", w7)

	// p8: E -> W8 = (a, f)
	w8 := workflow.NewWorkflow()
	w8.Node("a")
	w8.Node("f")
	w8.Edge("a", 0, "f", 1)
	b.Production("E", w8)

	// Fine-grained dependency assignment for the atomic modules.
	b.Deps("a", [2]int{0, 0})
	b.Deps("b", [2]int{0, 0}, [2]int{0, 1})
	b.Deps("c", [2]int{0, 0}, [2]int{1, 0})
	b.Deps("d", [2]int{0, 0}, [2]int{1, 1})
	b.Deps("e", [2]int{0, 0}, [2]int{1, 1})
	b.Deps("f", [2]int{0, 0}, [2]int{1, 1})

	return b.MustBuild()
}

// PaperSecurityView builds the grey-box view U2 = (∆′, λ′) of Example 7:
// only S, A and B remain expandable, C becomes an atomic module with
// black-box dependencies (hiding its internal structure), and the perceived
// dependencies of e are coarsened, so the view's answers differ from the
// default view's (Example 8).
func PaperSecurityView(spec *workflow.Specification) (*view.View, error) {
	deps := workflow.DependencyAssignment{}
	for _, name := range []string{"a", "b", "c", "d"} {
		deps[name] = spec.Deps[name].Clone()
	}
	deps["e"] = workflow.CompleteDeps(spec.Grammar.Modules["e"])
	deps["C"] = workflow.CompleteDeps(spec.Grammar.Modules["C"])
	return view.New("security", spec, []string{"S", "A", "B"}, deps)
}

// PaperAbstractionView builds a white-box abstraction view over the running
// example: the same restriction ∆′ = {S, A, B} as the security view, but the
// perceived dependencies of every view-atomic module are the true induced
// ones, so reachability answers agree with the default view on all visible
// data.
func PaperAbstractionView(spec *workflow.Specification) (*view.View, error) {
	def := view.Default(spec)
	full, err := def.FullAssignment()
	if err != nil {
		return nil, err
	}
	deps := workflow.DependencyAssignment{}
	for _, name := range []string{"a", "b", "c", "d", "e", "C"} {
		deps[name] = full[name].Clone()
	}
	return view.New("abstraction", spec, []string{"S", "A", "B"}, deps)
}

// UnsafeExample builds a specification in the spirit of Figure 6: the start
// module S has two productions S -> (a) and S -> (b) whose atomic modules
// induce different dependencies between S's inputs and outputs (a is
// black-box, b is diagonal), so the specification is unsafe and no dynamic
// labeling scheme exists for it (Example 9 / Theorem 1). As library code it
// propagates a grammar-construction failure instead of panicking.
func UnsafeExample() (*workflow.Grammar, workflow.DependencyAssignment, error) {
	b := workflow.NewBuilder().
		Module("S", 2, 2).
		Module("a", 2, 2).
		Module("b", 2, 2).
		Start("S")
	wa := workflow.NewWorkflow()
	wa.Node("a")
	b.Production("S", wa)
	wb := workflow.NewWorkflow()
	wb.Node("b")
	b.Production("S", wb)
	b.BlackBox("a")
	b.Deps("b", [2]int{0, 0}, [2]int{1, 1})
	g, err := b.Grammar()
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: building the unsafe example grammar: %w", err)
	}
	deps := workflow.DependencyAssignment{}
	deps["a"] = workflow.CompleteDeps(g.Modules["a"])
	bm := workflow.CompleteDeps(g.Modules["b"])
	bm.Set(0, 1, false)
	bm.Set(1, 0, false)
	deps["b"] = bm
	return g, deps, nil
}
