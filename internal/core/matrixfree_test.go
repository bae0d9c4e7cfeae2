package core

// Differential test for the Matrix-Free FVL mode (Section 6.4): the
// short-circuited decoding must agree with plain decoding on every query,
// for every variant, across the randomized workload generators — white-box,
// black-box (where the short cuts actually fire) and grey-box views over
// randomly derived runs — on the label path, on index-resolved point
// queries under an attached plan, and on the set scans.

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
		idx := BuildItemIndex(0, labeler.Count(), labeler.Label)
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
			pairs := make([][2]int, 200)
			for i := range pairs {
				pairs[i] = [2]int{visible[rng.Intn(len(visible))], visible[rng.Intn(len(visible))]}
			}
			for _, variant := range variants {
				vl, err := scheme.LabelView(v, variant)
				if err != nil {
					t.Fatalf("labeling %s view (%v): %v", mode, variant, err)
				}
				mf := vl.WithMatrixFree()
				ps, fs := NewQuerySession(), NewQuerySession()
				ps.EnsurePlan(idx)
				fs.EnsurePlan(idx)
				for _, p := range pairs {
					d1, _ := labeler.Label(p[0])
					d2, _ := labeler.Label(p[1])
					plain, err := vl.DependsOn(d1, d2)
					if err != nil {
						t.Fatalf("plain DependsOn (%s, %v): %v", mode, variant, err)
					}
					free, err := mf.DependsOn(d1, d2)
					if err != nil {
						t.Fatalf("matrix-free DependsOn (%s, %v): %v", mode, variant, err)
					}
					if plain != free {
						t.Fatalf("matrix-free decoding disagrees on %s view, variant %v: plain=%v free=%v",
							mode, variant, plain, free)
					}
					plainIdx, perr := ps.DependsOnIndexed(vl, idx, p[0], p[1])
					freeIdx, ferr := fs.DependsOnIndexed(mf, idx, p[0], p[1])
					if perr != nil || ferr != nil || plainIdx != plain || freeIdx != plain {
						t.Fatalf("indexed decoding of (%d, %d) on %s view, variant %v: plain (%v, %v), matrix-free (%v, %v), label %v",
							p[0], p[1], mode, variant, plainIdx, perr, freeIdx, ferr, plain)
					}
				}
				for range 20 {
					x := visible[rng.Intn(len(visible))]
					for _, deps := range []bool{true, false} {
						scan := (*QuerySession).RevDepsRow
						if deps {
							scan = (*QuerySession).DepsRow
						}
						plainRow, perr := scan(ps, vl, idx, x)
						freeRow, ferr := scan(fs, mf, idx, x)
						if perr != nil || ferr != nil || !plainRow.Equal(freeRow) {
							t.Fatalf("deps=%v scan of %d on %s view, variant %v: plain (%v, %v), matrix-free (%v, %v)",
								deps, x, mode, variant, plainRow, perr, freeRow, ferr)
						}
					}
				}
				ps.Close()
				fs.Close()
			}
		}
	}
}
