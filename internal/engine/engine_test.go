package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/workloads"
)

// fixture builds one labeled BioAID run, a medium grey-box view label of the
// given variant, and count random query pairs over the view's visible items.
func fixture(tb testing.TB, variant core.Variant, count int) (*core.ViewLabel, []Query) {
	tb.Helper()
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 2000, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		tb.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "medium", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	vl, err := scheme.LabelView(v, variant)
	if err != nil {
		tb.Fatal(err)
	}
	proj, err := run.Project(r, v)
	if err != nil {
		tb.Fatal(err)
	}
	visible := proj.VisibleItems()
	rng := rand.New(rand.NewSource(4))
	queries := make([]Query, count)
	for i := range queries {
		a, _ := labeler.Label(visible[rng.Intn(len(visible))])
		b, _ := labeler.Label(visible[rng.Intn(len(visible))])
		queries[i] = Query{D1: a, D2: b}
	}
	return vl, queries
}

// TestBatchMatchesSerial checks, for every variant and several pool sizes,
// that the concurrent batch returns exactly the answers serial DependsOn
// gives.
func TestBatchMatchesSerial(t *testing.T) {
	for _, variant := range []core.Variant{core.VariantSpaceEfficient, core.VariantDefault, core.VariantQueryEfficient} {
		count := 500
		if variant == core.VariantSpaceEfficient {
			count = 150 // the graph-search variant is ~15x slower per query
		}
		vl, queries := fixture(t, variant, count)
		want := make([]Result, len(queries))
		for i, q := range queries {
			ok, err := vl.DependsOn(q.D1, q.D2)
			want[i] = Result{DependsOn: ok, Err: err}
		}
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0) + 1} {
			got := New(workers).DependsOnBatch(vl, queries)
			if len(got) != len(want) {
				t.Fatalf("%v/%d workers: got %d results for %d queries", variant, workers, len(got), len(queries))
			}
			for i := range got {
				if got[i].DependsOn != want[i].DependsOn || (got[i].Err == nil) != (want[i].Err == nil) {
					t.Fatalf("%v/%d workers: query %d: got (%v, %v), want (%v, %v)",
						variant, workers, i, got[i].DependsOn, got[i].Err, want[i].DependsOn, want[i].Err)
				}
			}
		}
	}
}

func TestBatchPropagatesPerQueryErrors(t *testing.T) {
	vl, queries := fixture(t, core.VariantQueryEfficient, 100)
	queries[17] = Query{} // invalid: labels without ports
	results := New(4).DependsOnBatch(vl, queries)
	if results[17].Err == nil {
		t.Fatalf("expected an error for the invalid query")
	}
	for i, res := range results {
		if i != 17 && res.Err != nil {
			t.Fatalf("query %d unexpectedly failed: %v", i, res.Err)
		}
	}
}

func TestBatchGrainFansOutSmallBatches(t *testing.T) {
	// Large cheap batches claim coarse blocks; small or expensive batches
	// must still occupy every worker.
	for _, tc := range []struct{ queries, workers, want int }{
		{100000, 4, 64},
		{64, 8, 8},
		{128, 8, 16},
		{3, 8, 1},
		{8, 8, 1},
	} {
		if got := batchGrain(tc.queries, tc.workers); got != tc.want {
			t.Fatalf("batchGrain(%d, %d) = %d, want %d", tc.queries, tc.workers, got, tc.want)
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	vl, queries := fixture(t, core.VariantQueryEfficient, 3)
	if got := New(8).DependsOnBatch(vl, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	// More workers than queries must neither deadlock nor drop queries.
	got := New(64).DependsOnBatch(vl, queries)
	if len(got) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(got), len(queries))
	}
	if New(0).Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0) should default to GOMAXPROCS workers")
	}
}

// BenchmarkEngineBatch measures batch throughput against one shared
// query-efficient label as the worker count grows; with read-only labels and
// per-worker contexts it should scale near-linearly until the memory
// bandwidth of the machine intervenes.
func BenchmarkEngineBatch(b *testing.B) {
	vl, queries := fixture(b, core.VariantQueryEfficient, 4096)
	for _, workers := range WorkerSweep(runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := New(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.DependsOnBatch(vl, queries)
			}
			b.StopTimer()
			perOp := b.Elapsed() / time.Duration(b.N*len(queries))
			if perOp > 0 {
				b.ReportMetric(1e9/float64(perOp.Nanoseconds())/1e6, "Mqueries/s")
			}
		})
	}
}
