package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workflow"
	"repro/internal/workloads"
)

// TestReserveSizesTheTableExactly: labeling the steps Reserve was given
// fills the label table to exactly the reserved capacity, whether the table
// is reserved from the first step or midway, on compact schemes with and
// without recursion at the start and on the basic scheme, whose paths grow
// with the parse tree. The labels are LabelRun's.
func TestReserveSizesTheTableExactly(t *testing.T) {
	cases := []struct {
		name  string
		spec  *workflow.Specification
		basic bool
	}{
		{"bioaid", workloads.BioAID(), false},
		{"paper", workloads.PaperExample(), false},
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
		r, err := workloads.RandomRun(tc.spec, workloads.RunOptions{TargetSize: 600, Rand: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		want, err := scheme.LabelRun(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, len(r.Steps) / 2} {
			l := scheme.NewRunLabeler()
			if err := l.OnInit(tc.spec); err != nil {
				t.Fatal(err)
			}
			for i := range r.Steps {
				if i == cut {
					l.Reserve(r.Steps[cut:])
				}
				if err := l.OnStep(&r.Steps[i]); err != nil {
					t.Fatal(err)
				}
			}
			if cap(l.items) != len(l.items) || cap(l.edges) != len(l.edges) || cap(l.ends) != len(l.ends) {
				t.Errorf("%s, reserved at step %d: items %d/%d, edges %d/%d, ends %d/%d (len/cap)", tc.name, cut,
					len(l.items), cap(l.items), len(l.edges), cap(l.edges), len(l.ends), cap(l.ends))
			}
			if !reflect.DeepEqual(l.items, want.items) || !reflect.DeepEqual(l.edges, want.edges) || !reflect.DeepEqual(l.ends, want.ends) {
				t.Errorf("%s, reserved at step %d: the table differs from LabelRun's", tc.name, cut)
			}
		}
	}
}
