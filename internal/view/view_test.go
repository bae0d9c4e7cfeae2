package view_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/prodgraph"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func TestDefaultViewIncludesEveryComposite(t *testing.T) {
	spec := workloads.PaperExample()
	def := view.Default(spec)
	if got, want := len(def.ExpandableModules()), len(spec.Grammar.Composites()); got != want {
		t.Fatalf("default view exposes %d composites, want %d", got, want)
	}
	for k := 1; k <= len(spec.Grammar.Productions); k++ {
		if !def.IncludesProduction(k) {
			t.Fatalf("default view must include production %d", k)
		}
	}
	if def.IncludesProduction(0) || def.IncludesProduction(len(spec.Grammar.Productions)+1) {
		t.Fatalf("out-of-range production indices must not be included")
	}
}

func TestFirstAnalysisIsSafeForConcurrentUse(t *testing.T) {
	// Labeling one view value from several goroutines at once (a service
	// handed the same view twice) must not let one goroutine read the
	// safety analysis while another is still computing it.
	spec := workloads.PaperExample()
	for round := 0; round < 50; round++ {
		v := view.Default(spec)
		var wg sync.WaitGroup
		full := make([]workflow.DependencyAssignment, 4)
		errs := make([]error, len(full))
		for g := range full {
			wg.Add(1)
			go func() {
				defer wg.Done()
				full[g], errs[g] = v.FullAssignment()
			}()
		}
		wg.Wait()
		for g := range full {
			if errs[g] != nil || full[g][spec.Grammar.Start] == nil {
				t.Fatalf("round %d, goroutine %d: no assignment for the start module (err %v)", round, g, errs[g])
			}
		}
	}
}

func TestViewRejectsMissingDependencies(t *testing.T) {
	spec := workloads.PaperExample()
	// λ′ misses module C, which is view-atomic under ∆′ = {S, A, B}.
	deps := workflow.DependencyAssignment{}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		deps[name] = spec.Deps[name].Clone()
	}
	if _, err := view.New("incomplete", spec, []string{"S", "A", "B"}, deps); err == nil {
		t.Fatalf("view with a missing dependency matrix must be rejected")
	}
}

func TestViewSafetyDetectsInconsistentGreyBox(t *testing.T) {
	// Hiding D but giving it dependencies that contradict what its two
	// productions induce under the remaining assignment is still safe or
	// unsafe depending on consistency; an identity assignment for e combined
	// with expanding A (which has two productions) can break consistency.
	spec := workloads.PaperExample()
	def := view.Default(spec)
	full, err := def.FullAssignment()
	if err != nil {
		t.Fatal(err)
	}
	deps := workflow.DependencyAssignment{}
	for _, name := range []string{"a", "b", "c", "d", "C"} {
		if m, ok := spec.Deps[name]; ok {
			deps[name] = m.Clone()
		} else {
			deps[name] = full[name].Clone()
		}
	}
	// Give e dependencies that swap its ports; A's two productions now induce
	// different matrices (p2 uses d and B, p3 uses e directly).
	e := spec.Grammar.Modules["e"]
	swapped := workflow.CompleteDeps(e)
	swapped.Set(0, 0, false)
	swapped.Set(1, 1, false)
	deps["e"] = swapped
	v, err := view.New("inconsistent", spec, []string{"S", "A", "B"}, deps)
	if err != nil {
		t.Fatalf("view construction should succeed (safety is checked separately): %v", err)
	}
	if v.IsSafe() {
		// Depending on the induced matrices this particular distortion might
		// still be consistent; the important property is that IsSafe and
		// SafetyError agree.
		if v.SafetyError() != nil {
			t.Fatalf("IsSafe and SafetyError disagree")
		}
	} else if v.SafetyError() == nil {
		t.Fatalf("unsafe view must report a safety error")
	}
}

func TestGroupModulesRewritesProduction(t *testing.T) {
	spec := workloads.PaperExample()
	// Group D and E inside W5 (production 5, C -> b, D, E, c), as in
	// Example 18 of the paper.
	var dIdx, eIdx int
	w5 := spec.Grammar.Productions[4].RHS
	for i, name := range w5.Nodes {
		if name == "D" {
			dIdx = i
		}
		if name == "E" {
			eIdx = i
		}
	}
	grouped, err := view.GroupModules(spec, view.Grouping{Production: 5, Nodes: []int{dIdx, eIdx}, NewModule: "F"})
	if err != nil {
		t.Fatal(err)
	}
	g := grouped.Grammar
	if _, ok := g.Modules["F"]; !ok {
		t.Fatalf("grouped specification must declare the new module F")
	}
	if len(g.Productions) != len(spec.Grammar.Productions)+1 {
		t.Fatalf("grouping must add exactly one production")
	}
	newProd := g.Productions[len(g.Productions)-1]
	if newProd.LHS != "F" || len(newProd.RHS.Nodes) != 2 {
		t.Fatalf("the new production must be F -> (D, E), got %v -> %v", newProd.LHS, newProd.RHS.Nodes)
	}
	// W9 must contain F instead of D and E, and hide the D->E data edge.
	w9 := g.Productions[4].RHS
	if len(w9.Nodes) != len(w5.Nodes)-1 {
		t.Fatalf("rewritten workflow has %d nodes, want %d", len(w9.Nodes), len(w5.Nodes)-1)
	}
	found := false
	for _, n := range w9.Nodes {
		if n == "F" {
			found = true
		}
		if n == "D" || n == "E" {
			t.Fatalf("grouped occurrences must not remain in the rewritten workflow")
		}
	}
	if !found {
		t.Fatalf("rewritten workflow must contain F")
	}
	if err := grouped.Validate(); err != nil {
		t.Fatalf("grouped specification invalid: %v", err)
	}
	// The grouped grammar keeps its recursion structure (D's self-loop now
	// lives below F).
	pg := prodgraph.New(g)
	if !pg.IsStrictlyLinearRecursive() {
		t.Fatalf("grouping must preserve strict linear recursion here")
	}
}

func TestGroupModulesRejectsBadInput(t *testing.T) {
	spec := workloads.PaperExample()
	cases := []view.Grouping{
		{Production: 0, Nodes: []int{0}, NewModule: "F"},
		{Production: 5, Nodes: []int{}, NewModule: "F"},
		{Production: 5, Nodes: []int{0, 0}, NewModule: "F"},
		{Production: 5, Nodes: []int{99}, NewModule: "F"},
		{Production: 5, Nodes: []int{0, 1, 2, 3}, NewModule: "F"},
		{Production: 5, Nodes: []int{0}, NewModule: "S"},
	}
	for _, g := range cases {
		if _, err := view.GroupModules(spec, g); err == nil {
			t.Fatalf("grouping %+v must be rejected", g)
		}
	}
}

func TestGroupModulesRejectsNonConvexGroup(t *testing.T) {
	spec := workloads.PaperExample()
	// In W5 = (b, D, E, c) with edges b->D, b->E, D->E, D->c, E->c, grouping
	// {b, c} is not convex: a path leaves the group at D/E and re-enters at c.
	w5 := spec.Grammar.Productions[4].RHS
	var bIdx, cIdx int
	for i, name := range w5.Nodes {
		if name == "b" {
			bIdx = i
		}
		if name == "c" {
			cIdx = i
		}
	}
	if _, err := view.GroupModules(spec, view.Grouping{Production: 5, Nodes: []int{bIdx, cIdx}, NewModule: "F"}); err == nil {
		t.Fatalf("non-convex grouping must be rejected")
	}
}

func TestUserDefinedViewEndToEnd(t *testing.T) {
	spec := workloads.PaperExample()
	w5 := spec.Grammar.Productions[4].RHS
	var dIdx, eIdx int
	for i, name := range w5.Nodes {
		if name == "D" {
			dIdx = i
		}
		if name == "E" {
			eIdx = i
		}
	}
	grouped, v, err := view.UserDefined("grouped", spec,
		[]view.Grouping{{Production: 5, Nodes: []int{dIdx, eIdx}, NewModule: "F"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.IsExpandable("F") {
		t.Fatalf("the newly introduced module must be hidden by the user-defined view")
	}
	if !v.IsSafe() {
		t.Fatalf("user-defined view unsafe: %v", v.SafetyError())
	}

	// The rewritten specification is a first-class specification: runs can be
	// derived, labeled and queried over the user-defined view, with answers
	// matching the ground-truth oracle.
	scheme, err := core.NewScheme(grouped)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(grouped, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := run.Project(r, v)
	if err != nil {
		t.Fatal(err)
	}
	visible := proj.VisibleItems()
	for _, d1 := range visible {
		for _, d2 := range visible {
			want, err := proj.DependsOn(d1, d2)
			if err != nil {
				t.Fatal(err)
			}
			l1, _ := labeler.Label(d1)
			l2, _ := labeler.Label(d2)
			got, err := vl.DependsOn(l1, l2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("user-defined view: DependsOn(%d,%d) = %v, oracle says %v", d1, d2, got, want)
			}
		}
	}
}
