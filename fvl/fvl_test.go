package fvl_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/fvl"
)

func TestBuildersAccumulateErrorsInsteadOfPanicking(t *testing.T) {
	// Every mistake below used to be a panic or an early return in the
	// internal builders; the façade must collect them and keep fluent
	// chaining usable.
	_, err := fvl.NewSpec().
		Module("S", 1, 1).
		Start("S").
		Production("S", fvl.NewFlow().
			Node("a").
			Edge("a", 0, "ghost", 0)). // unknown occurrence: recorded, not panicked
		Build()
	if err == nil {
		t.Fatal("unknown occurrence must surface at Build")
	}
	if !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("error should name the unknown occurrence, got: %v", err)
	}

	_, err = fvl.NewSpec().
		Module("S", 1, 1).
		Deps("missing", [2]int{0, 0}).
		Start("S").
		Build()
	if err == nil {
		t.Fatal("dependencies for an undeclared module must surface at Build")
	}

	// An edge referencing a label declared twice must fail instead of
	// silently attaching to the most recent occurrence.
	_, err = fvl.NewSpec().
		Module("S", 1, 1).
		Module("a", 1, 1).
		Start("S").
		Production("S", fvl.NewFlow().
			Node("a").Node("a").
			Edge("a", 0, "a", 0)).
		Build()
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("edges over a duplicated occurrence label must fail as ambiguous, got: %v", err)
	}
	// Distinct labels for repeated modules keep working.
	_, err = fvl.NewSpec().
		Module("S", 1, 1).
		Module("a", 1, 1).
		Start("S").
		Deps("a", [2]int{0, 0}).
		Production("S", fvl.NewFlow().
			Node("a", "first").Node("a", "second").
			Edge("first", 0, "second", 0)).
		Build()
	if err != nil {
		t.Fatalf("labeled repeated occurrences must build, got: %v", err)
	}

	spec := fvl.PaperExample()
	_, err = spec.NewView("broken").Expand("no-such-module").Build()
	if err == nil {
		t.Fatal("expanding an unknown module must fail at Build")
	}
	_, err = spec.NewView("broken").Deps("no-such-module", [2]int{0, 0}).Build()
	if err == nil {
		t.Fatal("deps for an unknown module must fail at Build")
	}
}

func TestViewBuilderRoundTrip(t *testing.T) {
	// Rebuild the paper's security view by hand: S, A, B expandable, C a
	// black box, atomic modules keep their true dependencies.
	spec := fvl.PaperExample()
	want, err := fvl.SecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := spec.NewView("handmade-security").
		Expand("S", "A", "B").
		BlackBox("C", "e").
		TrueDeps("a", "b", "c", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsSafe() {
		t.Fatalf("handmade security view is unsafe: %v", v.SafetyError())
	}
	grey, err := v.IsGreyBox()
	if err != nil {
		t.Fatal(err)
	}
	wantGrey, _ := want.IsGreyBox()
	if grey != wantGrey {
		t.Fatalf("grey-box: got %v, want %v", grey, wantGrey)
	}

	// The handmade view must answer queries exactly like the bundled one.
	labeler, err := fvl.NewLabeler(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := labeler.Label(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	vlWant, err := labeler.LabelView(want)
	if err != nil {
		t.Fatal(err)
	}
	vlGot, err := labeler.LabelView(v)
	if err != nil {
		t.Fatal(err)
	}
	items := r.Items()
	for i := 0; i < len(items); i += 7 {
		for j := 0; j < len(items); j += 11 {
			l1, _ := labels.Label(items[i].ID)
			l2, _ := labels.Label(items[j].ID)
			a1, e1 := vlWant.DependsOn(l1, l2)
			a2, e2 := vlGot.DependsOn(l1, l2)
			if a1 != a2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("items (%d,%d): bundled view answered (%v,%v), handmade (%v,%v)",
					items[i].ID, items[j].ID, a1, e1, a2, e2)
			}
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	spec := fvl.BioAID()
	svc, err := fvl.Open(ctx, spec, []*fvl.View{spec.DefaultView()})
	if err != nil {
		t.Fatal(err)
	}

	// ErrUnknownView: single and batch paths.
	if _, err := svc.DependsOn(ctx, "nope", fvl.Label{}, fvl.Label{}); !errors.Is(err, fvl.ErrUnknownView) {
		t.Fatalf("DependsOn on unknown view: got %v, want ErrUnknownView", err)
	}
	if _, err := svc.DependsOnBatch(ctx, "nope", nil); !errors.Is(err, fvl.ErrUnknownView) {
		t.Fatalf("DependsOnBatch on unknown view: got %v, want ErrUnknownView", err)
	}

	// ErrCanceled: a canceled context aborts the batch.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.DependsOnBatch(canceled, "default", make([]fvl.Query, 256)); !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("canceled batch: got %v, want ErrCanceled", err)
	}
	if _, err := svc.DependsOn(canceled, "default", fvl.Label{}, fvl.Label{}); !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("canceled single query: got %v, want ErrCanceled", err)
	}
	labeler, err := fvl.NewLabeler(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := labeler.LabelViews(canceled, spec.DefaultView()); !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("canceled LabelViews: got %v, want ErrCanceled", err)
	}
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := labeler.Label(canceled, r); !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("canceled Label: got %v, want ErrCanceled", err)
	}
	if _, err := fvl.LabelBaselines(canceled, []*fvl.View{spec.DefaultView()}, r); !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("canceled LabelBaselines: got %v, want ErrCanceled", err)
	}

	// ErrForeignLabel: a view over one spec cannot be labeled by a labeler
	// for another instance of it.
	other := fvl.BioAID()
	if _, err := labeler.LabelView(other.DefaultView()); !errors.Is(err, fvl.ErrForeignLabel) {
		t.Fatalf("foreign view: got %v, want ErrForeignLabel", err)
	}

	// ErrCorruptSnapshot: flip a payload byte of a valid snapshot.
	var buf bytes.Buffer
	if err := svc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0x40
	if _, err := fvl.OpenSnapshot(bytes.NewReader(data)); !errors.Is(err, fvl.ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorruptSnapshot", err)
	}
	if _, err := fvl.OpenSnapshot(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, fvl.ErrCorruptSnapshot) {
		t.Fatalf("garbage snapshot: got %v, want ErrCorruptSnapshot", err)
	}

	// ErrNotLinearRecursive: Figure 10's grammar defeats the compact scheme,
	// so NewLabeler builds the basic one instead of failing.
	if f10, err := fvl.NewLabeler(fvl.Figure10()); err != nil || !f10.IsBasic() {
		t.Fatalf("Figure 10: got a labeler (basic %v) and error %v, want the basic scheme", f10 != nil && f10.IsBasic(), err)
	}

	// ErrHiddenItem: querying an item the view hides.
	sec, err := fvl.RandomView(spec, fvl.ViewOptions{Name: "tiny", Composites: 1, Mode: fvl.BlackBox, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	vl, err := labeler.LabelView(sec)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := labeler.Label(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	var hidden fvl.Label
	found := false
	for _, item := range r.Items() {
		l, _ := labels.Label(item.ID)
		if !vl.Visible(l) {
			hidden, found = l, true
			break
		}
	}
	if !found {
		t.Skip("tiny view hides nothing in this run")
	}
	if _, err := vl.DependsOn(hidden, hidden); !errors.Is(err, fvl.ErrHiddenItem) {
		t.Fatalf("hidden item query: got %v, want ErrHiddenItem", err)
	}
}

func TestServiceCancellationDoesNotDrainBatch(t *testing.T) {
	// The acceptance contract: a canceled context makes Service.DependsOnBatch
	// return ErrCanceled without draining the remaining claim blocks. With
	// the context canceled before the call, no block may be drained at all.
	ctx := context.Background()
	spec := fvl.BioAID()
	svc, err := fvl.Open(ctx, spec, []*fvl.View{spec.DefaultView()}, fvl.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := svc.NewLabeler().Label(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	items := r.Items()
	first, _ := labels.Label(items[0].ID)
	last, _ := labels.Label(items[len(items)-1].ID)
	queries := make([]fvl.Query, 4096)
	for i := range queries {
		queries[i] = fvl.Query{From: first, To: last}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	results, err := svc.DependsOnBatch(canceled, "default", queries)
	if !errors.Is(err, fvl.ErrCanceled) {
		t.Fatalf("got err %v, want ErrCanceled", err)
	}
	for i, res := range results {
		if res.DependsOn || res.Err != nil {
			t.Fatalf("query %d was drained after cancellation: (%v, %v)", i, res.DependsOn, res.Err)
		}
	}
	// The same batch with a live context answers every query.
	results, err = svc.DependsOnBatch(ctx, "default", queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d failed: %v", i, res.Err)
		}
	}
}

func TestSnapshotRoundTripThroughService(t *testing.T) {
	ctx := context.Background()
	spec := fvl.BioAID()
	views := []*fvl.View{spec.DefaultView()}
	for i, mode := range []fvl.DependencyMode{fvl.WhiteBox, fvl.GreyBox, fvl.BlackBox} {
		v, err := fvl.RandomView(spec, fvl.ViewOptions{
			Name: "snap-" + mode.String(), Composites: 4 + 2*i, Mode: mode, Seed: int64(40 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	var buf bytes.Buffer
	svc, err := fvl.Open(ctx, spec, views, fvl.WithSnapshot(&buf), fvl.WithVariant(fvl.Materialized))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := fvl.OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Views(), svc.Views(); len(got) != len(want) {
		t.Fatalf("restored %d views, want %d", len(got), len(want))
	}

	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 600, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	liveLabels, err := svc.NewLabeler().Label(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	restoredRun, err := fvl.RandomRun(restored.Spec(), fvl.RunOptions{TargetSize: 600, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	restoredLabels, err := restored.NewLabeler().Label(ctx, restoredRun)
	if err != nil {
		t.Fatal(err)
	}
	if liveLabels.Count() != restoredLabels.Count() {
		t.Fatalf("label counts diverge: live %d, restored %d", liveLabels.Count(), restoredLabels.Count())
	}

	items := r.Items()
	for _, name := range svc.Views() {
		var queries, restoredQueries []fvl.Query
		for i := 0; i < len(items); i += 17 {
			for j := 0; j < len(items); j += 23 {
				l1, _ := liveLabels.Label(items[i].ID)
				l2, _ := liveLabels.Label(items[j].ID)
				queries = append(queries, fvl.Query{From: l1, To: l2})
				r1, _ := restoredLabels.Label(items[i].ID)
				r2, _ := restoredLabels.Label(items[j].ID)
				restoredQueries = append(restoredQueries, fvl.Query{From: r1, To: r2})
			}
		}
		live, err := svc.DependsOnBatch(ctx, name, queries)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := restored.DependsOnBatch(ctx, name, restoredQueries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range live {
			if live[i].DependsOn != rest[i].DependsOn || (live[i].Err == nil) != (rest[i].Err == nil) {
				t.Fatalf("view %q query %d: live (%v,%v) vs restored (%v,%v)",
					name, i, live[i].DependsOn, live[i].Err, rest[i].DependsOn, rest[i].Err)
			}
		}
	}
}

func TestSnapshotDedupesRelabeledViews(t *testing.T) {
	// Serving the same view twice (a retry, or repeated use of one view
	// value) must not produce a snapshot the loader rejects as storing a
	// view twice.
	ctx := context.Background()
	spec := fvl.PaperExample()
	def := spec.DefaultView()
	// Twice through the same *View, and once through a fresh-but-equal value
	// (constructors build a new value per call; repeated use is not an error).
	svc, err := fvl.Open(ctx, spec, []*fvl.View{def, def, spec.DefaultView()})
	if err != nil {
		t.Fatalf("Open with a repeated view: %v", err)
	}
	if got := svc.Views(); len(got) != 1 {
		t.Fatalf("repeated view served %v, want one entry", got)
	}
	var buf bytes.Buffer
	if err := svc.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot after relabeling: %v", err)
	}
	restored, err := fvl.OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("snapshot written after relabeling does not load: %v", err)
	}
	if got := restored.Views(); len(got) != 1 || got[0] != "default" {
		t.Fatalf("restored views = %v, want [default]", got)
	}

	// Two *different* views sharing a name stay an error — silently dropping
	// one would be ambiguous — and Open writes nothing to its snapshot
	// writer.
	v1, err := fvl.RandomView(spec, fvl.ViewOptions{Name: "twin", Composites: 1, Mode: fvl.BlackBox, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := fvl.RandomView(spec, fvl.ViewOptions{Name: "twin", Composites: 2, Mode: fvl.WhiteBox, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var twin bytes.Buffer
	if _, err := fvl.Open(ctx, spec, []*fvl.View{v1, v2}, fvl.WithSnapshot(&twin)); err == nil {
		t.Fatal("two distinct views named \"twin\" must fail Open")
	}
	if twin.Len() != 0 {
		t.Fatalf("a failed Open wrote %d snapshot bytes", twin.Len())
	}
}

func TestRunSurfaceMatchesOracle(t *testing.T) {
	// The projection oracle, the view label and the matrix-free label must
	// agree through the public surface.
	ctx := context.Background()
	spec := fvl.PaperExample()
	labeler, err := fvl.NewLabeler(spec, fvl.WithVariant(fvl.SpaceEfficient))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 70, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := labeler.Label(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fvl.SecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := labeler.LabelView(v)
	if err != nil {
		t.Fatal(err)
	}
	mf := vl.MatrixFree()
	proj, err := r.Project(v)
	if err != nil {
		t.Fatal(err)
	}
	visible := proj.VisibleItems()
	for i := 0; i < len(visible); i += 3 {
		for j := 0; j < len(visible); j += 5 {
			d1, d2 := visible[i], visible[j]
			want, err := proj.DependsOn(d1, d2)
			if err != nil {
				t.Fatal(err)
			}
			l1, _ := labels.Label(d1)
			l2, _ := labels.Label(d2)
			got, err := vl.DependsOn(l1, l2)
			if err != nil {
				t.Fatal(err)
			}
			gotMF, err := mf.DependsOn(l1, l2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || gotMF != want {
				t.Fatalf("items (%d,%d): oracle %v, label %v, matrix-free %v", d1, d2, want, got, gotMF)
			}
		}
	}
}

func TestAnalyzeReportsPaperFacts(t *testing.T) {
	a := fvl.PaperExample().Analyze()
	if !a.Valid() || !a.Proper() || !a.Safe() {
		t.Fatalf("paper example must be valid, proper and safe: %+v", a)
	}
	if !a.StrictlyLinearRecursive {
		t.Fatal("paper example must be strictly linear-recursive")
	}
	if len(a.Recursions) == 0 || len(a.FullDeps) == 0 || len(a.GraphEdges) == 0 {
		t.Fatalf("analysis misses recursions/deps/edges: %+v", a)
	}

	f10 := fvl.Figure10().Analyze()
	if !f10.LinearRecursive || f10.StrictlyLinearRecursive {
		t.Fatalf("Figure 10 must be linear- but not strictly linear-recursive, got %v/%v",
			f10.LinearRecursive, f10.StrictlyLinearRecursive)
	}
}

func TestAttachLabelsOnline(t *testing.T) {
	// Attach before deriving; labels appear as items are created and match a
	// replay labeling of the same run.
	spec := fvl.PaperExample()
	labeler, err := fvl.NewLabeler(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	online, err := labeler.Attach(r)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := labeler.Label(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if online.Count() != replayed.Count() || online.Count() != r.Size() {
		t.Fatalf("counts diverge: online %d, replayed %d, run %d", online.Count(), replayed.Count(), r.Size())
	}
	for _, item := range r.Items() {
		a, okA := online.Label(item.ID)
		b, okB := replayed.Label(item.ID)
		if !okA || !okB || a.String() != b.String() {
			t.Fatalf("item %d: online %v (%v) vs replayed %v (%v)", item.ID, a, okA, b, okB)
		}
		bits, ok := online.SizeBits(item.ID)
		if !ok || bits <= 0 {
			t.Fatalf("item %d: bad label size %d (%v)", item.ID, bits, ok)
		}
		buf, nbits, ok := online.Encode(item.ID)
		if !ok || nbits != bits {
			t.Fatalf("item %d: Encode bits %d, SizeBits %d", item.ID, nbits, bits)
		}
		decoded, err := online.Decode(buf, nbits)
		if err != nil || decoded.String() != a.String() {
			t.Fatalf("item %d: decode round-trip %v (%v), want %v", item.ID, decoded, err, a)
		}
	}
}

func TestSchemeKindFollowsGrammar(t *testing.T) {
	// The scheme kind is the grammar's, not the caller's: compact wherever
	// the grammar is strictly linear-recursive, basic for Figure 10.
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		spec  *fvl.Spec
		basic bool
	}{
		{"paper", fvl.PaperExample(), false},
		{"bioaid", fvl.BioAID(), false},
		{"synthetic", fvl.Synthetic(fvl.DefaultSyntheticParams()), false},
		{"figure10", fvl.Figure10(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			labeler, err := fvl.NewLabeler(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if labeler.IsBasic() != tc.basic {
				t.Fatalf("NewLabeler built basic=%v, want %v", labeler.IsBasic(), tc.basic)
			}
			svc, err := fvl.Open(ctx, tc.spec, []*fvl.View{tc.spec.DefaultView()})
			if err != nil {
				t.Fatal(err)
			}
			if svc.IsBasic() != tc.basic {
				t.Fatalf("Open built basic=%v, want %v", svc.IsBasic(), tc.basic)
			}
		})
	}

	// Figure 10's basic-scheme answers agree with a graph search over the
	// run, on every pair of items.
	spec := fvl.Figure10()
	svc, err := fvl.Open(ctx, spec, []*fvl.View{spec.DefaultView()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := svc.NewLabeler().Label(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := r.Project(spec.DefaultView())
	if err != nil {
		t.Fatal(err)
	}
	answers := map[bool]int{}
	for _, d1 := range proj.VisibleItems() {
		for _, d2 := range proj.VisibleItems() {
			want, err := proj.DependsOn(d1, d2)
			if err != nil {
				t.Fatal(err)
			}
			l1, _ := labels.Label(d1)
			l2, _ := labels.Label(d2)
			got, err := svc.DependsOn(ctx, "default", l1, l2)
			if err != nil {
				t.Fatalf("items (%d,%d): %v", d1, d2, err)
			}
			if got != want {
				t.Fatalf("items (%d,%d): label says %v, graph search %v", d1, d2, got, want)
			}
			answers[got]++
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("Figure 10 run of %d items gave one-sided answers %v", r.Size(), answers)
	}
}

func TestRandomViewRejectsUnknownMode(t *testing.T) {
	spec := fvl.BioAID()
	if _, err := fvl.RandomView(spec, fvl.ViewOptions{Name: "bad", Composites: 3, Mode: fvl.DependencyMode(7), Seed: 1}); err == nil {
		t.Fatal("RandomView accepted dependency mode 7")
	}
	for _, mode := range []fvl.DependencyMode{fvl.WhiteBox, fvl.BlackBox, fvl.GreyBox} {
		parsed, err := fvl.ParseDependencyMode(mode.String())
		if err != nil || parsed != mode {
			t.Fatalf("ParseDependencyMode(%q) = %v, %v", mode.String(), parsed, err)
		}
	}
}
