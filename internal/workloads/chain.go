package workloads

import (
	"fmt"

	"repro/internal/boolmat"
	"repro/internal/workflow"
)

// chainSpec describes one "chain production" used by the BioAID-like and
// synthetic workload generators: a dedicated source module, a sequence of
// middle modules wired lane-by-lane, and a dedicated sink module.
//
//	src.out[p]   -> mid[0].in[p]
//	mid[t].out[p]-> mid[t+1].in[p]
//	mid[k].out[p]-> snk.in[p]
//
// The source owns every initial input and the sink owns every final output,
// so the right-hand side has a single source and a single sink (the shape
// Definition 8 relies on). When the source and sink have black-box
// dependencies, the induced dependency matrix of the left-hand side is
// complete regardless of the middle modules, which is how the generators
// keep composite modules with several alternative productions consistent
// (and therefore the whole specification safe) while still using genuinely
// fine-grained dependencies in the middle.
type chainSpec struct {
	lhs   string
	src   string
	snk   string
	mids  []string
	lanes int // number of wiring lanes = src outputs = mid ports = snk inputs
}

// addChainProduction declares the production on the builder. All referenced
// modules must already be declared with compatible port counts: src must have
// exactly `lanes` outputs, every mid `lanes` inputs and `lanes` outputs, and
// snk `lanes` inputs.
func addChainProduction(b *workflow.Builder, c chainSpec) {
	wb := workflow.NewWorkflow()
	wb.Node(c.src, "src")
	prev := "src"
	for i, m := range c.mids {
		label := fmt.Sprintf("mid%d", i)
		wb.Node(m, label)
		for p := 0; p < c.lanes; p++ {
			wb.Edge(prev, p, label, p)
		}
		prev = label
	}
	wb.Node(c.snk, "snk")
	for p := 0; p < c.lanes; p++ {
		wb.Edge(prev, p, "snk", p)
	}
	b.Production(c.lhs, wb)
}

// fineDeps builds a deterministic fine-grained (generally incomplete)
// dependency matrix for a module with the given port counts: every input
// contributes to at least one output and every output depends on at least one
// input (Definition 6), with the exact pattern varied by salt so different
// modules get different dependencies.
func fineDeps(in, out, salt int) *boolmat.Matrix {
	m := boolmat.New(in, out)
	if in == 0 || out == 0 {
		return m
	}
	for i := 0; i < in; i++ {
		m.Set(i, (i+salt)%out, true)
	}
	for o := 0; o < out; o++ {
		m.Set((o+salt)%in, o, true)
	}
	// A couple of extra deterministic dependencies for variety on larger
	// modules, still leaving the matrix incomplete whenever possible.
	if in > 1 && out > 1 {
		m.Set(salt%in, (salt+1)%out, true)
	}
	return m
}
