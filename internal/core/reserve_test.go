package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workflow"
	"repro/internal/workloads"
)

// TestReserveSizesTheTableExactly: labeling the steps reserve was given
// fills the label table to exactly the reserved capacity, whether the table
// is reserved from the first step or midway, and so does Scheme.LabelRun, on
// compact schemes with and without recursion at the start and on basic
// schemes, whose paths grow with the parse tree. The labels are those of a
// labeler fed OnStep alone, which reserves nothing. The placement table that
// reserve and OnStep read holds pathGrowth of every RHS node of every
// production, and nothing for a production the specification lacks.
func TestReserveSizesTheTableExactly(t *testing.T) {
	cases := []struct {
		name  string
		spec  *workflow.Specification
		basic bool
	}{
		{"bioaid", workloads.BioAID(), false},
		{"paper", workloads.PaperExample(), false},
		{"bioaid-basic", workloads.BioAID(), true},
		{"figure10-basic", workloads.Figure10Example(), true},
	}
	for _, tc := range cases {
		newScheme := NewScheme
		if tc.basic {
			newScheme = NewSchemeBasic
		}
		scheme, err := newScheme(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		prods := tc.spec.Grammar.Productions
		for k, p := range prods {
			got := scheme.placements(k + 1)
			if len(got) != len(p.RHS.Nodes) {
				t.Fatalf("%s, production %d: %d placements for %d nodes", tc.name, k+1, len(got), len(p.RHS.Nodes))
			}
			for ni, module := range p.RHS.Nodes {
				if want := scheme.pathGrowth(p.LHS, module); int(got[ni]) != want {
					t.Errorf("%s, production %d node %d (%s → %s): placement %d, pathGrowth %d", tc.name, k+1, ni, p.LHS, module, got[ni], want)
				}
			}
		}
		if scheme.placements(0) != nil || scheme.placements(len(prods)+1) != nil {
			t.Errorf("%s: placements outside productions 1..%d are not nil", tc.name, len(prods))
		}
		r, err := workloads.RandomRun(tc.spec, workloads.RunOptions{TargetSize: 600, Rand: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		want := scheme.NewRunLabeler()
		if err := want.OnInit(tc.spec); err != nil {
			t.Fatal(err)
		}
		for i := range r.Steps {
			if err := want.OnStep(&r.Steps[i]); err != nil {
				t.Fatal(err)
			}
		}
		check := func(input string, l *RunLabeler) {
			t.Helper()
			if cap(l.items) != len(l.items) || cap(l.edges) != len(l.edges) || cap(l.ends) != len(l.ends) {
				t.Errorf("%s, %s: items %d/%d, edges %d/%d, ends %d/%d (len/cap)", tc.name, input,
					len(l.items), cap(l.items), len(l.edges), cap(l.edges), len(l.ends), cap(l.ends))
			}
			if !reflect.DeepEqual(l.items, want.items) || !reflect.DeepEqual(l.edges, want.edges) || !reflect.DeepEqual(l.ends, want.ends) {
				t.Errorf("%s, %s: the table differs from the unreserved labeler's", tc.name, input)
			}
		}
		for _, cut := range []int{0, len(r.Steps) / 2} {
			l := scheme.NewRunLabeler()
			if err := l.OnInit(tc.spec); err != nil {
				t.Fatal(err)
			}
			for i := range r.Steps[:cut] {
				if err := l.OnStep(&r.Steps[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.LabelSteps(context.Background(), r.Steps[cut:]); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("reserved at step %d", cut), l)
		}
		labeled, err := scheme.LabelRun(r)
		if err != nil {
			t.Fatal(err)
		}
		check("LabelRun", labeled)
	}
}
