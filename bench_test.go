// Benchmarks, one per table and figure of the paper's evaluation (Section 6).
// Each benchmark exercises the operation whose cost the corresponding figure
// reports (labeling a run, labeling a view, answering queries, ...) so that
// `go test -bench=. -benchmem` gives the per-operation costs, while the full
// row-by-row reproduction of every figure is produced by `cmd/fvlbench`
// (which drives internal/bench at the paper's scale).
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/drl"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workloads"
)

// ---------------------------------------------------------------------------
// Figure 17 / Figure 18 — labeling runs (FVL vs DRL).
// ---------------------------------------------------------------------------

func BenchmarkFig17FVLLabelRun(b *testing.B) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		b.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 8000, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.LabelRun(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Size()), "items/run")
}

func BenchmarkFig17DRLLabelRun(b *testing.B) {
	spec := workloads.BioAID()
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 8000, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	v := view.Default(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drl.LabelRun(v, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Size()), "items/run")
}

func BenchmarkFig18LabelSingleStep(b *testing.B) {
	// The incremental cost Figure 18 accumulates: deriving and labeling one
	// production application at a time.
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := run.New(spec)
		labeler := scheme.NewRunLabeler()
		if err := r.AddObserver(labeler); err != nil {
			b.Fatal(err)
		}
		frontier := r.Frontier()
		b.StartTimer()
		if _, err := r.Apply(frontier[0], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 19 — labeling views with the three FVL variants.
// ---------------------------------------------------------------------------

func benchmarkLabelView(b *testing.B, variant core.Variant) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		b.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "large", Composites: 16, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vl, err := scheme.LabelView(v, variant)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(vl.SizeBits()), "label-bits")
		}
	}
}

func BenchmarkFig19LabelViewSpaceEfficient(b *testing.B) {
	benchmarkLabelView(b, core.VariantSpaceEfficient)
}
func BenchmarkFig19LabelViewDefault(b *testing.B) { benchmarkLabelView(b, core.VariantDefault) }
func BenchmarkFig19LabelViewQueryEfficient(b *testing.B) {
	benchmarkLabelView(b, core.VariantQueryEfficient)
}

// ---------------------------------------------------------------------------
// Figure 20 — query time per FVL variant.
// ---------------------------------------------------------------------------

func benchmarkQuery(b *testing.B, variant core.Variant, matrixFree bool, mode workloads.DependencyMode) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		b.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 8000, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		b.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		b.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "medium", Composites: 8, Mode: mode, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		b.Fatal(err)
	}
	vl, err := scheme.LabelView(v, variant)
	if err != nil {
		b.Fatal(err)
	}
	if matrixFree {
		vl = vl.WithMatrixFree()
	}
	proj, err := run.Project(r, v)
	if err != nil {
		b.Fatal(err)
	}
	visible := proj.VisibleItems()
	rng := rand.New(rand.NewSource(4))
	type pair struct{ a, b core.DataLabel }
	pairs := make([]pair, 4096)
	for i := range pairs {
		a, _ := labeler.Label(visible[rng.Intn(len(visible))])
		c, _ := labeler.Label(visible[rng.Intn(len(visible))])
		pairs[i] = pair{a, c}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := vl.DependsOn(p.a, p.b); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20QuerySpaceEfficient(b *testing.B) {
	benchmarkQuery(b, core.VariantSpaceEfficient, false, workloads.GreyBox)
}
func BenchmarkFig20QueryDefault(b *testing.B) {
	benchmarkQuery(b, core.VariantDefault, false, workloads.GreyBox)
}
func BenchmarkFig20QueryQueryEfficient(b *testing.B) {
	benchmarkQuery(b, core.VariantQueryEfficient, false, workloads.GreyBox)
}

// ---------------------------------------------------------------------------
// Figures 21 and 22 — the multi-view costs: FVL labels a run once; DRL labels
// it once per view.
// ---------------------------------------------------------------------------

func BenchmarkFig21FVLPerViewCost(b *testing.B) {
	// The marginal cost FVL pays when one more view is added: labeling the
	// view itself (data labels are reused).
	benchmarkLabelView(b, core.VariantQueryEfficient)
}

func BenchmarkFig22DRLPerViewCost(b *testing.B) {
	// The marginal cost DRL pays when one more view is added: projecting and
	// relabeling the whole run for that view.
	spec := workloads.BioAID()
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 8000, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		b.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "medium", Composites: 8, Mode: workloads.BlackBox, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drl.LabelRun(v, r); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 23 — query time over coarse-grained views.
// ---------------------------------------------------------------------------

func BenchmarkFig23QueryFVL(b *testing.B) {
	benchmarkQuery(b, core.VariantQueryEfficient, false, workloads.BlackBox)
}
func BenchmarkFig23QueryMatrixFreeFVL(b *testing.B) {
	benchmarkQuery(b, core.VariantQueryEfficient, true, workloads.BlackBox)
}
func BenchmarkFig23QueryDRL(b *testing.B) {
	spec := workloads.BioAID()
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 8000, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		b.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "medium", Composites: 8, Mode: workloads.BlackBox, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		b.Fatal(err)
	}
	labeler, err := drl.LabelRun(v, r)
	if err != nil {
		b.Fatal(err)
	}
	proj, err := run.Project(r, v)
	if err != nil {
		b.Fatal(err)
	}
	visible := proj.VisibleItems()
	rng := rand.New(rand.NewSource(4))
	type pair struct{ a, b core.DataLabel }
	pairs := make([]pair, 4096)
	for i := range pairs {
		x, _ := labeler.Label(visible[rng.Intn(len(visible))])
		y, _ := labeler.Label(visible[rng.Intn(len(visible))])
		pairs[i] = pair{x, y}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := labeler.DependsOn(p.a, p.b); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 24 and 25, Table 1 — the synthetic workflow family.
// ---------------------------------------------------------------------------

func BenchmarkFig24LabelDeepRun(b *testing.B) {
	for _, depth := range []int{2, 10} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			params := workloads.DefaultSyntheticParams()
			params.NestingDepth = depth
			spec := workloads.Synthetic(params)
			scheme, err := core.NewScheme(spec)
			if err != nil {
				b.Fatal(err)
			}
			r, err := workloads.DeepRun(spec, workloads.RunOptions{TargetSize: 4000, Rand: rand.New(rand.NewSource(9))})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var labeler *core.RunLabeler
			for i := 0; i < b.N; i++ {
				labeler, err = scheme.LabelRun(r)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			maxBits := 0
			for _, item := range r.Items {
				l, _ := labeler.Label(item.ID)
				if n := scheme.Codec().SizeBits(l); n > maxBits {
					maxBits = n
				}
			}
			b.ReportMetric(float64(maxBits), "max-label-bits")
		})
	}
}

func BenchmarkFig25QueryByModuleDegree(b *testing.B) {
	for _, degree := range []int{2, 10} {
		degree := degree
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			params := workloads.DefaultSyntheticParams()
			params.ModuleDegree = degree
			spec := workloads.Synthetic(params)
			scheme, err := core.NewScheme(spec)
			if err != nil {
				b.Fatal(err)
			}
			r, err := workloads.DeepRun(spec, workloads.RunOptions{TargetSize: 4000, Rand: rand.New(rand.NewSource(10))})
			if err != nil {
				b.Fatal(err)
			}
			labeler, err := scheme.LabelRun(r)
			if err != nil {
				b.Fatal(err)
			}
			v, err := workloads.RandomView(spec, workloads.ViewOptions{
				Name: "all", Composites: params.NestingDepth * params.RecursionLength,
				Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(11)),
			})
			if err != nil {
				b.Fatal(err)
			}
			vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
			if err != nil {
				b.Fatal(err)
			}
			proj, err := run.Project(r, v)
			if err != nil {
				b.Fatal(err)
			}
			visible := proj.VisibleItems()
			rng := rand.New(rand.NewSource(12))
			type pair struct{ a, b core.DataLabel }
			pairs := make([]pair, 2048)
			for i := range pairs {
				x, _ := labeler.Label(visible[rng.Intn(len(visible))])
				y, _ := labeler.Label(visible[rng.Intn(len(visible))])
				pairs[i] = pair{x, y}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := vl.DependsOn(p.a, p.b); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1FullSweep(b *testing.B) {
	// Table 1 is a classification over many measurements; the benchmark runs
	// the whole reduced-scale sweep once per iteration.
	cfg := bench.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
