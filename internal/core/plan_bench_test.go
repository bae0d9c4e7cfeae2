package core

// Benchmarks for the plan-attached query path of the space-efficient
// variant, where a plan amortizes closures, recursion chains, chain products
// and visibility bits across queries. Compare with BenchmarkFig20Query* at
// the repository root, which charges every query its full cost.
//
//	go test -run '^$' -bench 'BenchmarkPlan' -benchmem ./internal/core

import (
	"math/rand"
	"testing"

	"repro/internal/boolmat"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// planBenchFixture labels a BioAID run and its default view with the
// space-efficient variant and returns the label, the run's labels and its
// item index.
func planBenchFixture(b *testing.B) (*ViewLabel, *RunLabeler, *ItemIndex) {
	b.Helper()
	spec := workloads.BioAID()
	scheme, err := NewScheme(spec)
	if err != nil {
		b.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 4000, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		b.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		b.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), VariantSpaceEfficient)
	if err != nil {
		b.Fatal(err)
	}
	return vl, labeler, BuildItemIndex(0, labeler.Count(), labeler.Label)
}

// benchPointPairs draws the item-ID pairs both point benchmarks query.
func benchPointPairs(n int) [][2]int {
	rng := rand.New(rand.NewSource(4))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{1 + rng.Intn(n), 1 + rng.Intn(n)}
	}
	return pairs
}

// BenchmarkPlanPointSpaceEfficient measures one point query through a
// session with an index-free plan attached, as an engine worker serves a
// label batch.
func BenchmarkPlanPointSpaceEfficient(b *testing.B) {
	vl, labeler, _ := planBenchFixture(b)
	type pair struct{ d1, d2 DataLabel }
	var pairs []pair
	for _, p := range benchPointPairs(labeler.Count()) {
		d1, _ := labeler.Label(p[0])
		d2, _ := labeler.Label(p[1])
		pairs = append(pairs, pair{d1, d2})
	}
	s := NewQuerySession()
	defer s.Close()
	s.EnsurePlan(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := s.DependsOn(vl, p.d1, p.d2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanPointIndexed measures the same point queries resolved through
// the run's item index, with a plan attached for that index, as an engine
// worker serves an index batch: chain products and visibility come from the
// plan's per-node caches.
func BenchmarkPlanPointIndexed(b *testing.B) {
	vl, _, idx := planBenchFixture(b)
	pairs := benchPointPairs(idx.Items())
	s := NewQuerySession()
	defer s.Close()
	s.EnsurePlan(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := s.DependsOnIndexed(vl, idx, p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanDepsRowSpaceEfficient measures one Deps set scan through a
// session with a plan attached for the run's item index, as the set-query
// executor runs it.
func BenchmarkPlanDepsRowSpaceEfficient(b *testing.B) {
	benchPlanRow(b, (*QuerySession).DepsRow)
}

// BenchmarkPlanRevDepsRowSpaceEfficient is the RevDeps scan beside it.
func BenchmarkPlanRevDepsRowSpaceEfficient(b *testing.B) {
	benchPlanRow(b, (*QuerySession).RevDepsRow)
}

// benchPlanRow runs one set scan per iteration over 64 fixed targets.
func benchPlanRow(b *testing.B, scan func(*QuerySession, *ViewLabel, *ItemIndex, int) (*boolmat.Matrix, error)) {
	vl, _, idx := planBenchFixture(b)
	rng := rand.New(rand.NewSource(5))
	targets := make([]int, 64)
	for i := range targets {
		targets[i] = 1 + rng.Intn(idx.Items())
	}
	s := NewQuerySession()
	defer s.Close()
	s.EnsurePlan(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan(s, vl, idx, targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// coldBatchFixture is a set batch in process: a run of the given size, a
// query-efficient label of a grey-box view with 8 expandable composites,
// and 4 Deps and 4 RevDeps targets among the view's visible intermediate
// items. Over a ~10k-item Synthetic run with the default parameters it is
// one mixed-fvld set batch.
type coldBatchFixture struct {
	vl      *ViewLabel
	idx     *ItemIndex
	targets []int
}

func newColdBatchFixture(tb testing.TB, spec *workflow.Specification, size int) coldBatchFixture {
	tb.Helper()
	scheme, err := NewScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		tb.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "grey", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	vl, err := scheme.LabelView(v, VariantQueryEfficient)
	if err != nil {
		tb.Fatal(err)
	}
	f := coldBatchFixture{vl: vl, idx: BuildItemIndex(1, labeler.Count(), labeler.Label)}
	var visible []int
	for x := 1; x <= labeler.Count(); x++ {
		if lx, _ := labeler.Label(x); vl.Visible(lx) && lx.Out.Present() && lx.In.Present() {
			visible = append(visible, x)
		}
	}
	if len(visible) == 0 {
		tb.Fatal("the grey view shows no intermediate item")
	}
	rng := rand.New(rand.NewSource(3))
	for range 8 {
		f.targets = append(f.targets, visible[rng.Intn(len(visible))])
	}
	return f
}

// batch runs the fixture's scans on a fresh plan attached to s: the first
// four targets as Deps scans, the rest as RevDeps scans.
func (f coldBatchFixture) batch(tb testing.TB, s *QuerySession) {
	s.AttachPlan(nil)
	s.EnsurePlan(f.idx)
	for i, x := range f.targets {
		scan := s.RevDepsRow
		if i < len(f.targets)/2 {
			scan = s.DepsRow
		}
		if _, err := scan(f.vl, f.idx, x); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPlanColdBatch measures one set batch on a new epoch: every
// iteration starts a fresh plan, so it pays for every visibility check and
// suffix product its 8 scans read.
func BenchmarkPlanColdBatch(b *testing.B) {
	f := newColdBatchFixture(b, workloads.Synthetic(workloads.DefaultSyntheticParams()), 10000)
	s := NewQuerySession()
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.batch(b, s)
	}
}
