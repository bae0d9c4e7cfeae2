package workloads

import "repro/internal/workflow"

// Figure10Example builds the specification of Figure 10 of the paper: a
// grammar that is linear-recursive but not strictly linear-recursive, because
// the start module S carries two distinct self-recursions (one through a, one
// through b). The dependency assignment is black-box, so the specification is
// safe (Lemma 2); nevertheless Theorem 6 shows no compact dynamic labeling
// scheme exists for it, which is why core.NewScheme rejects it and only the
// basic (linear-size-label) scheme applies.
func Figure10Example() *workflow.Specification {
	b := workflow.NewBuilder().
		Module("S", 1, 1).
		Module("a", 1, 1).
		Module("b", 1, 1).
		Module("c", 1, 1).
		Start("S")

	wa := workflow.NewWorkflow()
	wa.Node("a")
	wa.Node("S")
	wa.Edge("a", 0, "S", 0)
	b.Production("S", wa)

	wb := workflow.NewWorkflow()
	wb.Node("b")
	wb.Node("S")
	wb.Edge("b", 0, "S", 0)
	b.Production("S", wb)

	wc := workflow.NewWorkflow()
	wc.Node("c")
	b.Production("S", wc)

	b.BlackBox("a", "b", "c")
	return b.MustBuild()
}
