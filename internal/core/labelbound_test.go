package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// chainSpec is S -> [A, A, ..., A], n copies of a d-port black-box module
// wired in series: dense dependency matrices, so the closure's adjacency
// lists dominate what labeling allocates.
func chainSpec(t *testing.T, d, n int) *workflow.Specification {
	t.Helper()
	g := &workflow.Grammar{Start: "S", Modules: map[string]workflow.Module{
		"S": {Name: "S", In: d, Out: d},
		"A": {Name: "A", In: d, Out: d},
	}}
	w := &workflow.SimpleWorkflow{}
	for i := 0; i < n; i++ {
		w.Nodes = append(w.Nodes, "A")
		for p := 0; i > 0 && p < d; p++ {
			w.Edges = append(w.Edges, workflow.DataEdge{FromNode: i - 1, FromPort: p, ToNode: i, ToPort: p})
		}
	}
	g.Productions = []workflow.Production{{LHS: "S", RHS: w}}
	spec, err := workflow.NewSpecification(g, workflow.DependencyAssignment{"A": workflow.CompleteDeps(g.Modules["A"])})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// doublingSpec is C_{i+1} -> [C_i, C_i] nested depth levels deep: the port
// counts double per level.
func doublingSpec(t *testing.T, depth int) *workflow.Specification {
	t.Helper()
	g := &workflow.Grammar{Start: fmt.Sprintf("C%d", depth), Modules: map[string]workflow.Module{}}
	for i := 0; i <= depth; i++ {
		name := fmt.Sprintf("C%d", i)
		g.Modules[name] = workflow.Module{Name: name, In: 1 << i, Out: 1 << i}
		if i > 0 {
			child := fmt.Sprintf("C%d", i-1)
			g.Productions = append(g.Productions, workflow.Production{LHS: name, RHS: &workflow.SimpleWorkflow{Nodes: []string{child, child}}})
		}
	}
	spec, err := workflow.NewSpecification(g, workflow.DependencyAssignment{"C0": boolmat.Full(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLabelBytesBoundCoversLabeling pins the premise of LabelViewWithin's
// budget: what LabelView allocates, measured, stays within labelBytesBound
// plus the power tables FindPeriod charges, on the shapes that stress each
// term — the paper example, BioAID, dense dependency matrices, doubling
// port counts and a long recursion period.
func TestLabelBytesBoundCoversLabeling(t *testing.T) {
	sigma := boolmat.New(30, 30) // cycles of 2, 3, 5, 7 and 13: period 2730
	base := 0
	for _, l := range []int{2, 3, 5, 7, 13} {
		for i := 0; i < l; i++ {
			sigma.Set(base+i, base+(i+1)%l, true)
		}
		base += l
	}
	permG := &workflow.Grammar{Start: "R", Modules: map[string]workflow.Module{
		"R": {Name: "R", In: 30, Out: 1}, "P": {Name: "P", In: 30, Out: 30}, "Q": {Name: "Q", In: 30, Out: 1},
	}}
	recurse := &workflow.SimpleWorkflow{Nodes: []string{"P", "R"}}
	for i := 0; i < 30; i++ {
		recurse.Edges = append(recurse.Edges, workflow.DataEdge{FromNode: 0, FromPort: i, ToNode: 1, ToPort: i})
	}
	permG.Productions = []workflow.Production{{LHS: "R", RHS: recurse}, {LHS: "R", RHS: &workflow.SimpleWorkflow{Nodes: []string{"Q"}}}}
	perm, err := workflow.NewSpecification(permG, workflow.DependencyAssignment{"P": sigma, "Q": workflow.CompleteDeps(permG.Modules["Q"])})
	if err != nil {
		t.Fatal(err)
	}

	specs := map[string]*workflow.Specification{
		"paper":       workloads.PaperExample(),
		"bioaid":      workloads.BioAID(),
		"dense":       chainSpec(t, 65, 20),
		"doubling":    doublingSpec(t, 9),
		"permutation": perm,
	}
	for name, spec := range specs {
		scheme, err := NewScheme(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{VariantSpaceEfficient, VariantDefault, VariantQueryEfficient} {
			v := view.Default(spec)
			bound := (&ViewLabel{scheme: scheme, view: v, variant: variant, included: includedProductions(v)}).labelBytesBound()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			vl, err := scheme.LabelView(v, variant)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			powers := 0
			for _, table := range vl.chains {
				for _, row := range table {
					for _, rc := range row {
						powers += rc.period.Bytes()
					}
				}
			}
			if grew := after.TotalAlloc - before.TotalAlloc; float64(grew) > bound+float64(powers) {
				t.Errorf("%s/%v: labeling allocated %d bytes, bound %.0f plus %d of power tables", name, variant, grew, bound, powers)
			}
		}
	}
}
