package core

// Differential tests for the plan-attached decode path: a plan amortizes
// closures, recursion chains, chain products and visibility bits, and none
// of that may change an answer. Every sampled pair is asked bare (the
// per-query-honest path of DependsOn) and through a session with a plan
// attached, and the set scans are checked against bare point loops.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// planDiffCase is one label and run to cross-check.
type planDiffCase struct {
	name   string
	scheme *Scheme
	vl     *ViewLabel
	lab    *RunLabeler
}

func newPlanDiffCase(t *testing.T, name string, spec *workflow.Specification, mkView func(*workflow.Specification) (*view.View, error), size int, seed int64) planDiffCase {
	t.Helper()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	v, err := mkView(spec)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(v, VariantSpaceEfficient)
	if err != nil {
		t.Fatal(err)
	}
	return planDiffCase{name: name, scheme: scheme, vl: vl, lab: lab}
}

func defaultView(spec *workflow.Specification) (*view.View, error) { return view.Default(spec), nil }

// partialCycleView keeps A expandable but not B, so the paper example's
// cycle A -> B -> A (productions 2 and 4) is only half included: recursive
// edges of that cycle stay visible up to B, and their chains cannot come
// from a full-turn recursion cache. B and e become black boxes, which keeps
// the view safe and makes it grey-box.
func partialCycleView(spec *workflow.Specification) (*view.View, error) {
	full, err := view.Default(spec).FullAssignment()
	if err != nil {
		return nil, err
	}
	deps := workflow.DependencyAssignment{}
	for _, m := range []string{"a", "b", "c", "d", "f"} {
		deps[m] = full[m].Clone()
	}
	for _, m := range []string{"B", "e"} {
		deps[m] = workflow.CompleteDeps(spec.Grammar.Modules[m])
	}
	return view.New("partial-cycle", spec, []string{"S", "A", "C", "D", "E"}, deps)
}

// recursionTurns returns the deepest recursive edge of a path, in full turns
// around its cycle.
func (c planDiffCase) recursionTurns(path []EdgeLabel) int {
	turns := 0
	for _, e := range path {
		if e.Recursive() {
			cy, _ := c.scheme.Cycle(e.S())
			turns = max(turns, (e.I()-1)/cy.Len())
		}
	}
	return turns
}

// recursiveSplitTurns reports, for a main-case pair whose paths diverge at a
// recursive node (case 2b of Algorithm 2), how many full cycle turns the
// chain mainChain synthesizes between the two unfoldings spans; -1
// for every other pair.
func (c planDiffCase) recursiveSplitTurns(d1, d2 DataLabel) int {
	if !d1.Out.Present() || !d2.In.Present() {
		return -1
	}
	l1, l2 := d1.Out.Path, d2.In.Path
	shared := commonPrefixLen(l1, l2)
	if shared == len(l1) || shared == len(l2) || !l1[shared].Recursive() || !l2[shared].Recursive() {
		return -1
	}
	cy, _ := c.scheme.Cycle(l1[shared].S())
	return abs(l1[shared].I()-l2[shared].I()) / cy.Len()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPlanAttachedDecodingMatchesBare(t *testing.T) {
	paper := workloads.PaperExample()
	cases := []planDiffCase{
		newPlanDiffCase(t, "bioaid/default", workloads.BioAID(), defaultView, 600, 3),
		newPlanDiffCase(t, "paper/default", paper, defaultView, 400, 8),
		newPlanDiffCase(t, "paper/partial-cycle", paper, partialCycleView, 400, 8),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.lab.Count()
			labels := make([]DataLabel, n+1)
			var visible []int
			for id := 1; id <= n; id++ {
				labels[id], _ = c.lab.Label(id)
				if c.vl.Visible(labels[id]) {
					visible = append(visible, id)
				}
			}
			idx := BuildItemIndex(0, n, c.lab.Label)
			point := NewQuerySession()
			defer point.Close()
			point.EnsurePlan(nil)
			scan := NewQuerySession()
			defer scan.Close()
			pc := scan.EnsurePlan(idx)

			// Targets: the most deeply recursive visible items (their rows
			// cover the deepest case-2b splits) plus a random sample.
			rng := rand.New(rand.NewSource(int64(n)))
			deepest, turns := 0, -1
			for _, id := range visible {
				d := labels[id]
				if tr := max(c.recursionTurns(d.Out.Path), c.recursionTurns(d.In.Path)); tr > turns {
					deepest, turns = id, tr
				}
			}
			targets := []int{deepest}
			for len(targets) < 6 {
				targets = append(targets, visible[rng.Intn(len(visible))])
			}

			same := func(y, x int) bool {
				want, werr := c.vl.DependsOn(labels[y], labels[x])
				got, gerr := point.DependsOn(c.vl, labels[y], labels[x])
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("DependsOn(%d, %d): bare (%v, %v), plan-attached (%v, %v)", y, x, want, werr, got, gerr)
				}
				return want && werr == nil
			}
			splitTurns := -1
			for _, x := range targets {
				deps, err := scan.DepsRow(c.vl, idx, x)
				if err != nil {
					t.Fatalf("DepsRow(%d): %v", x, err)
				}
				rev, err := scan.RevDepsRow(c.vl, idx, x)
				if err != nil {
					t.Fatalf("RevDepsRow(%d): %v", x, err)
				}
				for y := 1; y <= n; y++ {
					if got, want := deps.Get(0, y), same(y, x); got != want {
						t.Fatalf("DepsRow(%d) bit %d = %v, bare point query says %v", x, y, got, want)
					}
					if got, want := rev.Get(0, y), same(x, y); got != want {
						t.Fatalf("RevDepsRow(%d) bit %d = %v, bare point query says %v", x, y, got, want)
					}
					splitTurns = max(splitTurns, c.recursiveSplitTurns(labels[y], labels[x]), c.recursiveSplitTurns(labels[x], labels[y]))
				}
			}
			for i := 0; i < 2000; i++ {
				same(visible[rng.Intn(len(visible))], visible[rng.Intn(len(visible))])
			}

			// The fixtures must reach what this test is about. A cycle the
			// view only half includes gets no plan-built chain; its
			// recursive edges take the product/power fallback.
			for e := range planEntries(pc) {
				if cy, _ := c.scheme.Cycle(e.a); e.kind == "chain" && !c.vl.cycleIncluded(cy) {
					t.Fatalf("half-included cycle %d got a plan-built recursion chain", e.a)
				}
			}
			fallback := 0
			for _, id := range visible {
				for _, e := range append(slices.Clip(labels[id].Out.Path), labels[id].In.Path...) {
					if cy, _ := c.scheme.Cycle(e.S()); e.Recursive() && e.I() > 1 && !c.vl.cycleIncluded(cy) {
						fallback++
					}
				}
			}
			if c.name == "paper/partial-cycle" {
				if fallback == 0 {
					t.Fatal("no visible item sits below a non-trivial edge of the half-included cycle")
				}
				return
			}
			if turns < 3 || splitTurns < 2 {
				t.Fatalf("fixture too shallow: deepest recursion %d turns, deepest case-2b split %d turns", turns, splitTurns)
			}
			if countEntries(planEntries(pc), "chain") == 0 {
				t.Fatal("the scans built no recursion chain into the plan")
			}
		})
	}
}
