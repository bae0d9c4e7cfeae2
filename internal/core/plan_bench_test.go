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
