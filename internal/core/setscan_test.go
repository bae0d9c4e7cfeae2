package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestDepsRowOutrunsPointLoop checks the shape of the set-query planner on
// the workload it was built for: a wide-fanout synthetic workflow (degree 8)
// where one DepsRow scan shares a matrix chain per trie-path group, while
// the point loop pays a full DependsOn per candidate. Both must give the
// same answer for every target, and the scan must be at least 3x faster
// than the loop (best of 3 timings each); at this scale it is 10x or more.
// The space-efficient variant is left out: its point loop alone takes
// seconds, and fvl's TestSetQueriesMatchPointQueryOracle covers its answers.
func TestDepsRowOutrunsPointLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test skipped in -short mode")
	}
	spec := workloads.Synthetic(workloads.SyntheticParams{
		WorkflowSize: 40, ModuleDegree: 8, NestingDepth: 3, RecursionLength: 2,
	})
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 500, Rand: rand.New(rand.NewSource(8101))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "setquery", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(8201)),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := labeler.Count()
	idx := core.BuildItemIndex(0, n, labeler.Label)

	for _, variant := range []core.Variant{core.VariantDefault, core.VariantQueryEfficient} {
		t.Run(variant.String(), func(t *testing.T) {
			vl, err := scheme.LabelView(v, variant)
			if err != nil {
				t.Fatal(err)
			}
			const maxTargets = 50
			var targets []int
			for x := 1; x <= n && len(targets) < maxTargets; x += max(n/maxTargets, 1) {
				lx, _ := labeler.Label(x)
				if vl.Visible(lx) {
					targets = append(targets, x)
				}
			}
			if len(targets) < maxTargets/2 {
				t.Fatalf("only %d of %d sampled targets are visible", len(targets), maxTargets)
			}

			want := make([][]int, len(targets))
			loop := bestOf3(func() {
				s := core.NewQuerySession()
				defer s.Close()
				for i, x := range targets {
					lx, _ := labeler.Label(x)
					want[i] = want[i][:0]
					for y := 1; y <= n; y++ {
						ly, _ := labeler.Label(y)
						if ok, err := s.DependsOn(vl, ly, lx); err == nil && ok {
							want[i] = append(want[i], y)
						}
					}
				}
			})

			s := core.NewQuerySession()
			defer s.Close()
			s.EnsurePlan(idx)
			got := make([][]int, len(targets))
			var scanErr error
			plan := bestOf3(func() {
				for i, x := range targets {
					row, err := s.DepsRow(vl, idx, x)
					if err != nil {
						scanErr = err
						return
					}
					got[i] = got[i][:0]
					row.EachTrueInRow(0, func(y int) { got[i] = append(got[i], y) })
				}
			})
			if scanErr != nil {
				t.Fatal(scanErr)
			}

			for i, x := range targets {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("deps(%d): row scan found %v, point loop %v", x, got[i], want[i])
				}
			}
			t.Logf("%d targets: point loop %v, DepsRow scan %v (%.1fx)", len(targets), loop, plan, float64(loop)/float64(plan))
			if loop < 3*plan {
				t.Errorf("DepsRow scan %v is not 3x faster than the point loop %v", plan, loop)
			}
		})
	}
}

// bestOf3 runs f three times and returns its fastest wall-clock time.
func bestOf3(f func()) time.Duration {
	best := time.Duration(-1)
	for range 3 {
		start := time.Now()
		f()
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best
}
