package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/query"
	"repro/internal/view"
	"repro/internal/workloads"
)

// setQueryFixture builds a server serving the paper example's default and
// security views, plus the item index and data labels of one labeled random
// run.
func setQueryFixture(t *testing.T) (*engine.Server, *core.ItemIndex, func(int) (core.DataLabel, bool)) {
	t.Helper()
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	var labels []*core.ViewLabel
	for _, v := range []*view.View{view.Default(spec), sec} {
		vl, err := scheme.LabelView(v, core.VariantDefault)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, vl)
	}
	srv, err := engine.NewServer(scheme, labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 80, Rand: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	return srv, core.BuildItemIndex(0, labeler.Count(), labeler.Label), labeler.Label
}

// TestServerSetQueryBatchMatchesPointQueries checks every deps/revdeps row
// the batch returns against the point-query answers of the served label.
func TestServerSetQueryBatchMatchesPointQueries(t *testing.T) {
	srv, idx, labelOf := setQueryFixture(t)
	vl, _ := srv.Label("security")
	var exprs []*query.Expr
	for x := 1; x <= idx.Items(); x++ {
		exprs = append(exprs, query.Deps(x), query.RevDeps(x))
	}
	results, err := srv.SetQueryBatchContext(context.Background(), "security", idx, exprs)
	if err != nil {
		t.Fatal(err)
	}
	label := func(x int) core.DataLabel {
		d, ok := labelOf(x)
		if !ok {
			t.Fatalf("labeler lost item %d", x)
		}
		return d
	}
	for x := 1; x <= idx.Items(); x++ {
		for half, reverse := range []bool{false, true} {
			res := results[(x-1)*2+half]
			target := label(x)
			if _, err := vl.DependsOn(target, target); err != nil {
				// Hidden target: the set query must fail the same way.
				if !errors.Is(res.Err, faults.ErrHiddenItem) {
					t.Fatalf("item %d reverse=%v: got err %v, want ErrHiddenItem", x, reverse, res.Err)
				}
				continue
			}
			if res.Err != nil {
				t.Fatalf("item %d reverse=%v: %v", x, reverse, res.Err)
			}
			got := map[int]bool{}
			for _, y := range res.Value.ItemIDs() {
				got[y] = true
			}
			for y := 1; y <= idx.Items(); y++ {
				d1, d2 := label(y), target
				if reverse {
					d1, d2 = d2, d1
				}
				ok, err := vl.DependsOn(d1, d2)
				want := err == nil && ok
				if got[y] != want {
					t.Fatalf("item %d reverse=%v: member %d = %v, point query says %v", x, reverse, y, got[y], want)
				}
			}
		}
	}
}

// TestServerSetQueryBatchErrorIsolation checks that compile and execution
// failures stay confined to their own expression: a batch mixing good, bad
// and nil expressions still answers the good ones.
func TestServerSetQueryBatchErrorIsolation(t *testing.T) {
	srv, idx, _ := setQueryFixture(t)
	exprs := []*query.Expr{
		query.Deps(1),
		query.Between("security", "ghost"), // unserved endpoint: compile error
		nil,                                // invalid expression
		query.Deps(idx.Items() + 50),       // unknown item: execution error
		query.Between("security", "default"),
	}
	results, err := srv.SetQueryBatchContext(context.Background(), "security", idx, exprs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Value == nil {
		t.Fatalf("deps(1): %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, faults.ErrUnknownView) || results[1].Plan != nil {
		t.Fatalf("unserved endpoint: got err %v, plan %v", results[1].Err, results[1].Plan)
	}
	if !errors.Is(results[2].Err, faults.ErrInvalidQuery) {
		t.Fatalf("nil expression: got err %v", results[2].Err)
	}
	if !errors.Is(results[3].Err, faults.ErrUnknownItem) {
		t.Fatalf("unknown item: got err %v", results[3].Err)
	}
	if results[4].Err != nil || results[4].Value == nil {
		t.Fatalf("between: %v", results[4].Err)
	}
}

// TestServerSetQueryBatchUnknownPrimaryView pins the batch-level error: an
// unserved primary view fails the whole call, not per expression.
func TestServerSetQueryBatchUnknownPrimaryView(t *testing.T) {
	srv, idx, _ := setQueryFixture(t)
	if _, err := srv.SetQueryBatchContext(context.Background(), "ghost", idx, []*query.Expr{query.Deps(1)}); !errors.Is(err, faults.ErrUnknownView) {
		t.Fatalf("got %v, want ErrUnknownView", err)
	}
}
