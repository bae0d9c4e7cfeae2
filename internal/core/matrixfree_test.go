package core

// Differential test for the Matrix-Free FVL mode (Section 6.4): the
// short-circuited decoding must agree with plain decoding on every query,
// for every variant, across the randomized workload generators — white-box,
// black-box (where the short cuts actually fire) and grey-box views over
// randomly derived runs.

import (
	"math/rand"
	"testing"

	"repro/internal/run"
	"repro/internal/workloads"
)

func TestMatrixFreeAgreesWithPlainDecoding(t *testing.T) {
	spec := workloads.BioAID()
	scheme, err := NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Variant{VariantSpaceEfficient, VariantDefault, VariantQueryEfficient}
	modes := []workloads.DependencyMode{workloads.WhiteBox, workloads.BlackBox, workloads.GreyBox}

	for seed := int64(40); seed < 42; seed++ {
		r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 400, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		labeler, err := scheme.LabelRun(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			v, err := workloads.RandomView(spec, workloads.ViewOptions{
				Name: mode.String(), Composites: 8, Mode: mode, Rand: rand.New(rand.NewSource(seed + 100)),
			})
			if err != nil {
				t.Fatal(err)
			}
			proj, err := run.Project(r, v)
			if err != nil {
				t.Fatal(err)
			}
			visible := proj.VisibleItems()
			rng := rand.New(rand.NewSource(seed + 200))
			pairs := make([][2]DataLabel, 200)
			for i := range pairs {
				d1, _ := labeler.Label(visible[rng.Intn(len(visible))])
				d2, _ := labeler.Label(visible[rng.Intn(len(visible))])
				pairs[i] = [2]DataLabel{d1, d2}
			}
			for _, variant := range variants {
				vl, err := scheme.LabelView(v, variant)
				if err != nil {
					t.Fatalf("labeling %s view (%v): %v", mode, variant, err)
				}
				mf := vl.WithMatrixFree()
				for _, p := range pairs {
					plain, err := vl.DependsOn(p[0], p[1])
					if err != nil {
						t.Fatalf("plain DependsOn (%s, %v): %v", mode, variant, err)
					}
					free, err := mf.DependsOn(p[0], p[1])
					if err != nil {
						t.Fatalf("matrix-free DependsOn (%s, %v): %v", mode, variant, err)
					}
					if plain != free {
						t.Fatalf("matrix-free decoding disagrees on %s view, variant %v: plain=%v free=%v",
							mode, variant, plain, free)
					}
				}
			}
		}
	}
}
