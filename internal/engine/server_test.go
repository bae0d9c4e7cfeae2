package engine_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/labelstore"
	"repro/internal/view"
	"repro/internal/workloads"
)

// TestServerServesLoadedSnapshot drives the full warm-start path: label
// views, persist them, load the snapshot into a server and check the batch
// answers match direct queries against the freshly built labels.
func TestServerServesLoadedSnapshot(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 150, Rand: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	var built []*core.ViewLabel
	for _, v := range []*view.View{view.Default(spec), sec} {
		vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, vl)
	}

	var buf bytes.Buffer
	if err := labelstore.Save(&buf, scheme, built); err != nil {
		t.Fatal(err)
	}
	snap, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServerFromSnapshot(snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Views(); len(got) != 2 || got[0] != "default" || got[1] != "security" {
		t.Fatalf("Views() = %v", got)
	}

	rng := rand.New(rand.NewSource(88))
	queries := make([]engine.Query, 500)
	for i := range queries {
		d1, _ := labeler.Label(1 + rng.Intn(r.Size()))
		d2, _ := labeler.Label(1 + rng.Intn(r.Size()))
		queries[i] = engine.Query{D1: d1, D2: d2}
	}
	for _, vl := range built {
		name := vl.View().Name
		results, err := srv.DependsOnBatchContext(context.Background(), name, queries)
		if err != nil {
			t.Fatalf("batch over %q: %v", name, err)
		}
		for i, q := range queries {
			wantAns, wantErr := vl.DependsOn(q.D1, q.D2)
			if (wantErr == nil) != (results[i].Err == nil) {
				t.Fatalf("view %q query %d: built err=%v, served err=%v", name, i, wantErr, results[i].Err)
			}
			if wantAns != results[i].DependsOn {
				t.Fatalf("view %q query %d: built=%v, served=%v", name, i, wantAns, results[i].DependsOn)
			}
		}
	}

	if _, err := srv.DependsOnBatchContext(context.Background(), "no-such-view", queries); err == nil {
		t.Fatal("batch over an unknown view must fail")
	}
	if _, ok := srv.Label("security"); !ok {
		t.Fatal("Label lost the security view")
	}
}

func TestNewServerRejectsBadLabelSets(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewServer(nil, nil, 0); err == nil {
		t.Error("nil scheme accepted")
	}
	if _, err := engine.NewServer(scheme, []*core.ViewLabel{vl, vl}, 0); err == nil {
		t.Error("duplicate view name accepted")
	}
	if _, err := engine.NewServer(scheme, []*core.ViewLabel{nil}, 0); err == nil {
		t.Error("nil label accepted")
	}
	otherScheme, err := core.NewScheme(workloads.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := otherScheme.LabelView(view.Default(otherScheme.Spec), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewServer(scheme, []*core.ViewLabel{foreign}, 0); err == nil {
		t.Error("foreign label accepted")
	}
	if _, err := engine.NewServerFromSnapshot(nil, 0); err == nil {
		t.Error("nil snapshot accepted")
	}
}
