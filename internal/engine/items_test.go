package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// itemsFixture builds one labeled run of spec and a grey-box view label of
// the given variant; the run labeler doubles as the LabelSource (a completed
// run is just a live session whose prefix is the whole derivation).
func itemsFixture(tb testing.TB, spec *workflow.Specification, count int, variant core.Variant) (*core.ViewLabel, *core.RunLabeler, []ItemQuery) {
	tb.Helper()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 1200, Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		tb.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "items", Composites: 8, Mode: workloads.GreyBox, Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		tb.Fatal(err)
	}
	vl, err := scheme.LabelView(v, variant)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	queries := make([]ItemQuery, count)
	for i := range queries {
		queries[i] = ItemQuery{From: 1 + rng.Intn(labeler.Count()), To: 1 + rng.Intn(labeler.Count())}
	}
	return vl, labeler, queries
}

// TestItemsBatchMatchesLabelBatch: resolving IDs through a LabelSource or
// through an item index must give exactly the answers and errors.Is classes
// of the label-pair path, for every variant and several pool sizes, and the
// index batch on cold and warm plans alike. The queries cover IDs that
// resolve to no label (0, -1, n+1), hidden items, initial inputs and final
// outputs. core.RunLabeler is the LabelSource — the static assertion below
// keeps that interface satisfaction from regressing.
var _ LabelSource = (*core.RunLabeler)(nil)

func TestItemsBatchMatchesLabelBatch(t *testing.T) {
	// BioAID connects every intermediate item's out-port and in-port at the
	// same index; the paper's running example does not, so a port mixed up
	// between the two sides shows there.
	specs := []*workflow.Specification{workloads.BioAID(), workloads.PaperExample()}
	classes := map[string]int{}
	for _, spec := range specs {
		for _, variant := range []core.Variant{core.VariantSpaceEfficient, core.VariantDefault, core.VariantQueryEfficient} {
			itemsBatchesMatch(t, spec, variant, classes)
		}
	}
	for _, c := range []string{"true", "ok", "unknown", "hidden"} {
		if classes[c] == 0 {
			t.Fatalf("no query of class %q in %v", c, classes)
		}
	}
}

// itemsBatchesMatch compares the item and index batches with the label-pair
// batch on one spec and variant, counting the reference answers by class.
func itemsBatchesMatch(t *testing.T, spec *workflow.Specification, variant core.Variant, classes map[string]int) {
	vl, labeler, queries := itemsFixture(t, spec, 300, variant)
	n := labeler.Count()
	queries = append(queries, boundaryQueries(vl, labeler)...)
	paired := make([]Query, len(queries))
	for i, q := range queries {
		d1, _ := labeler.Label(q.From)
		d2, _ := labeler.Label(q.To)
		paired[i] = Query{D1: d1, D2: d2}
	}
	want := New(1).DependsOnBatch(vl, paired)
	for i, q := range queries {
		if q.From < 1 || q.From > n || q.To < 1 || q.To > n {
			want[i] = Result{Err: faults.ErrUnknownItem}
		}
		classes[errClass(want[i].Err)]++
		if want[i].DependsOn {
			classes["true"]++
		}
	}
	idx := core.BuildItemIndex(0, n, labeler.Label)
	for _, workers := range []int{1, 2, 4} {
		e := New(workers)
		check := func(path string, got []Result, err error) {
			t.Helper()
			if err != nil || len(got) != len(want) {
				t.Fatalf("variant %v workers=%d %s: %d results for %d queries, err %v", variant, workers, path, len(got), len(want), err)
			}
			for i := range got {
				if got[i].DependsOn != want[i].DependsOn || errClass(got[i].Err) != errClass(want[i].Err) {
					t.Fatalf("variant %v workers=%d %s query %+v: got %+v, want %+v", variant, workers, path, queries[i], got[i], want[i])
				}
			}
		}
		got, err := e.DependsOnItemsBatchContext(context.Background(), vl, labeler, queries)
		check("items batch", got, err)
		// The first index batch runs on fresh plans, the second on the
		// plans the first released to the engine's share.
		got, err = e.DependsOnIndexBatchContext(context.Background(), vl, idx, queries)
		check("cold index batch", got, err)
		got, err = e.DependsOnIndexBatchContext(context.Background(), vl, idx, queries)
		check("warm index batch", got, err)
		if e.share.IdleCaches(idx) == 0 {
			t.Fatalf("variant %v workers=%d: the index batch left no plan in the share", variant, workers)
		}
	}
}

// boundaryQueries pairs every ID of a small set with every other: IDs that
// resolve to no label, the first and last hidden, initial-input and
// final-output items, and about twenty visible items across the run.
func boundaryQueries(vl *core.ViewLabel, labeler *core.RunLabeler) []ItemQuery {
	n := labeler.Count()
	ids := []int{0, -1, n + 1}
	var visible []int
	var ends [3][]int // hidden, initial inputs, final outputs
	for id := 1; id <= n; id++ {
		d, _ := labeler.Label(id)
		switch {
		case !vl.Visible(d):
			ends[0] = append(ends[0], id)
			continue
		case !d.Out.Present():
			ends[1] = append(ends[1], id)
		case !d.In.Present():
			ends[2] = append(ends[2], id)
		}
		visible = append(visible, id)
	}
	for _, e := range ends {
		if len(e) > 0 {
			ids = append(ids, e[0], e[len(e)-1])
		}
	}
	for i := 0; i < len(visible); i += 1 + len(visible)/20 {
		ids = append(ids, visible[i])
	}
	var queries []ItemQuery
	for _, a := range ids {
		for _, b := range ids {
			queries = append(queries, ItemQuery{From: a, To: b})
		}
	}
	return queries
}

// errClass reduces a query error to the class callers can test with
// errors.Is; the three batch paths word some errors differently.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, faults.ErrUnknownItem):
		return "unknown"
	case errors.Is(err, faults.ErrHiddenItem):
		return "hidden"
	default:
		return "error"
	}
}

func TestItemsBatchUnknownItemFailsOnlyItsQuery(t *testing.T) {
	vl, labeler, _ := itemsFixture(t, workloads.BioAID(), 0, core.VariantQueryEfficient)
	queries := []ItemQuery{
		{From: 1, To: 2},
		{From: 0, To: 1},                   // IDs are 1-based; 0 never resolves
		{From: 1, To: labeler.Count() + 1}, // beyond the prefix
	}
	results, err := New(2).DependsOnItemsBatchContext(context.Background(), vl, labeler, queries)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, faults.ErrUnknownItem) {
		t.Fatalf("query 1: want ErrUnknownItem, got %+v", results[1])
	}
	if results[2].Err == nil || !errors.Is(results[2].Err, faults.ErrUnknownItem) {
		t.Fatalf("query 2: want ErrUnknownItem, got %+v", results[2])
	}
	if errors.Is(results[0].Err, faults.ErrUnknownItem) {
		t.Fatalf("query 0 should not have been poisoned: %+v", results[0])
	}
}
