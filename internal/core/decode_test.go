package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workloads"
)

// allVariants are the three view-labeling variants compared in Section 6.3.
var allVariants = []core.Variant{core.VariantSpaceEfficient, core.VariantDefault, core.VariantQueryEfficient}

// labeledRun derives a random run of the given size and labels it with FVL.
func labeledRun(t *testing.T, scheme *core.Scheme, seed int64, size int) (*run.Run, *core.RunLabeler) {
	t.Helper()
	r, err := workloads.RandomRun(scheme.Spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatalf("deriving run: %v", err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatalf("labeling run: %v", err)
	}
	if labeler.Count() != r.Size() {
		t.Fatalf("labeled %d items, run has %d", labeler.Count(), r.Size())
	}
	return r, labeler
}

// checkAgainstOracle compares the decoding predicate against the ground-truth
// projection oracle for pairs of visible items. When pairs <= 0 every pair is
// checked; otherwise that many random pairs are checked.
func checkAgainstOracle(t *testing.T, vl *core.ViewLabel, labeler *core.RunLabeler, r *run.Run, v *view.View, pairs int, seed int64) {
	t.Helper()
	proj, err := run.Project(r, v)
	if err != nil {
		t.Fatalf("projecting run onto %q: %v", v.Name, err)
	}
	visible := proj.VisibleItems()
	if len(visible) == 0 {
		t.Fatalf("view %q has no visible items", v.Name)
	}
	check := func(d1, d2 int) {
		l1, ok := labeler.Label(d1)
		if !ok {
			t.Fatalf("no label for item %d", d1)
		}
		l2, ok := labeler.Label(d2)
		if !ok {
			t.Fatalf("no label for item %d", d2)
		}
		want, err := proj.DependsOn(d1, d2)
		if err != nil {
			t.Fatalf("oracle DependsOn(%d,%d): %v", d1, d2, err)
		}
		got, err := vl.DependsOn(l1, l2)
		if err != nil {
			t.Fatalf("decode DependsOn(%d,%d) over %q: %v\n d1=%v\n d2=%v", d1, d2, v.Name, err, l1, l2)
		}
		if got != want {
			t.Fatalf("DependsOn(%d,%d) over %q (%v) = %v, oracle says %v\n d1=%v\n d2=%v",
				d1, d2, v.Name, vl.Variant(), got, want, l1, l2)
		}
	}
	if pairs <= 0 {
		for _, d1 := range visible {
			for _, d2 := range visible {
				check(d1, d2)
			}
		}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < pairs; n++ {
		check(visible[rng.Intn(len(visible))], visible[rng.Intn(len(visible))])
	}
}

func TestDecodeMatchesOracleOnPaperExample(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, labeler := labeledRun(t, scheme, 1, 150)

	views := map[string]*view.View{"default": view.Default(spec)}
	if v, err := workloads.PaperSecurityView(spec); err == nil {
		views["security"] = v
	} else {
		t.Fatal(err)
	}
	if v, err := workloads.PaperAbstractionView(spec); err == nil {
		views["abstraction"] = v
	} else {
		t.Fatal(err)
	}

	for name, v := range views {
		for _, variant := range allVariants {
			vl, err := scheme.LabelView(v, variant)
			if err != nil {
				t.Fatalf("labeling view %q (%v): %v", name, variant, err)
			}
			pairs := 0 // exhaustive
			if variant == core.VariantSpaceEfficient {
				pairs = 1500 // the graph-search variant is slow by design
			}
			t.Run(fmt.Sprintf("%s/%v", name, variant), func(t *testing.T) {
				checkAgainstOracle(t, vl, labeler, r, v, pairs, 7)
			})
			t.Run(fmt.Sprintf("%s/%v/matrix-free", name, variant), func(t *testing.T) {
				checkAgainstOracle(t, vl.WithMatrixFree(), labeler, r, v, 1500, 11)
			})
		}
	}
}

func TestDecodeMatchesOracleOnRandomGreyBoxViews(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(10); seed < 14; seed++ {
		r, labeler := labeledRun(t, scheme, seed, 100)
		rng := rand.New(rand.NewSource(seed * 31))
		for n := 2; n <= 6; n += 2 {
			v, err := workloads.RandomView(spec, workloads.ViewOptions{
				Name:       fmt.Sprintf("grey-%d-%d", seed, n),
				Composites: n,
				Mode:       workloads.GreyBox,
				Rand:       rng,
			})
			if err != nil {
				t.Fatalf("random view: %v", err)
			}
			vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
			if err != nil {
				t.Fatalf("labeling %q: %v", v.Name, err)
			}
			checkAgainstOracle(t, vl, labeler, r, v, 0, seed)
		}
	}
}

func TestDecodeMatchesOracleOnPartialRuns(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 80, Rand: rand.New(rand.NewSource(5)), Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.IsComplete() {
		t.Skip("random partial run happened to complete; nothing to test")
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	v := view.Default(spec)
	vl, err := scheme.LabelView(v, core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, vl, labeler, r, v, 0, 5)
}

func TestVisibilityMatchesProjection(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, labeler := labeledRun(t, scheme, 3, 120)
	v, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := run.Project(r, v)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(v, core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range r.Items {
		l, ok := labeler.Label(item.ID)
		if !ok {
			t.Fatalf("no label for item %d", item.ID)
		}
		if got, want := vl.Visible(l), proj.VisibleItem(item.ID); got != want {
			t.Fatalf("Visible(item %d) = %v, projection says %v (label %v)", item.ID, got, want, l)
		}
	}
}

// TestSecurityViewChangesAnswer reproduces the behaviour of Example 8: the
// same pair of data items (an input and an output of a composite C instance)
// has different reachability answers under the default view and under the
// grey-box security view that hides C's internals behind complete
// dependencies.
func TestSecurityViewChangesAnswer(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, labeler := labeledRun(t, scheme, 2, 60)

	secView, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	defLabel, err := scheme.LabelView(view.Default(spec), core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}
	secLabel, err := scheme.LabelView(secView, core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}

	// Find a C instance together with the data item entering its second input
	// port and the data item leaving its first output port. Under the default
	// view λ*(C) maps input 1 to output 0 as "no dependency"; under the
	// security view C is a grey box with complete dependencies, so the answer
	// flips to "yes".
	found := false
	for _, inst := range r.Instances {
		if inst.Module != "C" || len(inst.Inputs) < 2 || len(inst.Outputs) < 1 {
			continue
		}
		var dIn, dOut int
		for _, item := range r.Items {
			if item.Dst == inst.Inputs[1] {
				dIn = item.ID
			}
			if item.Src == inst.Outputs[0] {
				dOut = item.ID
			}
		}
		if dIn == 0 || dOut == 0 {
			continue
		}
		lIn, _ := labeler.Label(dIn)
		lOut, _ := labeler.Label(dOut)
		defAns, err := defLabel.DependsOn(lIn, lOut)
		if err != nil {
			t.Fatal(err)
		}
		secAns, err := secLabel.DependsOn(lIn, lOut)
		if err != nil {
			t.Fatal(err)
		}
		if defAns {
			t.Fatalf("under the default view output 0 of C must not depend on input 1 (λ*(C) is upper-triangular)")
		}
		if !secAns {
			t.Fatalf("under the security view output 0 of C must depend on input 1 (grey box with complete dependencies)")
		}
		found = true
		break
	}
	if !found {
		t.Fatalf("the derived run contains no suitable C instance; enlarge the run")
	}
}

func TestNewSchemeRejectsNonStrictlyLinearGrammar(t *testing.T) {
	spec := workloads.Figure10Example()
	if _, err := core.NewScheme(spec); err == nil {
		t.Fatalf("NewScheme must reject a grammar that is linear- but not strictly linear-recursive")
	}
	if _, err := core.NewSchemeBasic(spec); err != nil {
		t.Fatalf("NewSchemeBasic must accept any safe specification: %v", err)
	}
}

func TestBasicSchemeMatchesOracle(t *testing.T) {
	spec := workloads.Figure10Example()
	scheme, err := core.NewSchemeBasic(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 60, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	v := view.Default(spec)
	vl, err := scheme.LabelView(v, core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, vl, labeler, r, v, 0, 9)
}

func TestBasicSchemeOnPaperExampleMatchesCompactScheme(t *testing.T) {
	spec := workloads.PaperExample()
	compact, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := core.NewSchemeBasic(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 80, Rand: rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := compact.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := basic.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	v := view.Default(spec)
	vlc, err := compact.LabelView(v, core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}
	vlb, err := basic.LabelView(v, core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}
	for _, d1 := range r.Items {
		for _, d2 := range r.Items {
			a1, _ := lc.Label(d1.ID)
			a2, _ := lc.Label(d2.ID)
			b1, _ := lb.Label(d1.ID)
			b2, _ := lb.Label(d2.ID)
			ca, err := vlc.DependsOn(a1, a2)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := vlb.DependsOn(b1, b2)
			if err != nil {
				t.Fatal(err)
			}
			if ca != cb {
				t.Fatalf("compact and basic schemes disagree on (%d,%d): %v vs %v", d1.ID, d2.ID, ca, cb)
			}
		}
	}
}

func TestLabelViewErrors(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	other := workloads.PaperExample()
	foreign := view.Default(other)
	if _, err := scheme.LabelView(foreign, core.VariantDefault); err == nil {
		t.Fatalf("LabelView must reject views over a different specification")
	}
}

func TestDependsOnRejectsInvisibleItems(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, labeler := labeledRun(t, scheme, 4, 100)
	v, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := run.Project(r, v)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(v, core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	var hidden int
	for _, item := range r.Items {
		if !proj.VisibleItem(item.ID) {
			hidden = item.ID
			break
		}
	}
	if hidden == 0 {
		t.Skip("run has no hidden items under the security view")
	}
	lh, _ := labeler.Label(hidden)
	lv, _ := labeler.Label(1)
	if _, err := vl.DependsOn(lh, lv); err == nil {
		t.Fatalf("DependsOn must report an error for items hidden by the view")
	}
}

// cloneLabel copies a label's paths, which alias the labeler's path arena,
// so the copy can be corrupted without touching the labeler.
func cloneLabel(d core.DataLabel) core.DataLabel {
	d.Out.Path = slices.Clone(d.Out.Path)
	d.In.Path = slices.Clone(d.In.Path)
	return d
}

func TestDependsOnRejectsMalformedNodeIndices(t *testing.T) {
	// Data labels are untrusted input: an edge whose production is included
	// in the view but whose node index is out of range must yield an error,
	// not an out-of-range panic — on the materialized paths and on the
	// graph-search (space-efficient) path alike, with and without a plan
	// whose edge-matrix slots are indexed by the label's (k, i).
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, labeler := labeledRun(t, scheme, 61, 120)
	var initial, final, mid core.DataLabel
	for _, item := range r.Items {
		d, _ := labeler.Label(item.ID)
		switch {
		case !d.Out.Present():
			initial = d
		case !d.In.Present():
			final = d
		case len(d.In.Path) > 0 && !d.In.Path[len(d.In.Path)-1].Recursive() &&
			len(d.Out.Path) > 0 && !d.Out.Path[len(d.Out.Path)-1].Recursive():
			mid = d
		}
	}
	if !initial.In.Present() || !final.Out.Present() || !mid.In.Present() {
		t.Fatal("run lacks an initial input, a final output or a suitable intermediate item")
	}
	corrupt := func(p core.PortLabel, node int) {
		last := p.Path[len(p.Path)-1]
		p.Path[len(p.Path)-1] = core.NonRecursiveEdge(last.K(), node)
	}
	var badIns, badOuts []core.DataLabel
	for _, node := range []int{0, 99} {
		badIn := cloneLabel(mid)
		corrupt(badIn.In, node)
		badOut := cloneLabel(mid)
		corrupt(badOut.Out, node)
		badIns, badOuts = append(badIns, badIn), append(badOuts, badOut)
	}

	// A recursive edge with a cycle offset of 0 (the run labeler emits only
	// 1-based offsets) must be rejected by the visibility check rather than
	// panic the wraparound helpers.
	var badRec core.DataLabel
	found := false
	for _, item := range r.Items {
		d, _ := labeler.Label(item.ID)
		if !d.In.Present() {
			continue
		}
		for ei, e := range d.In.Path {
			if e.Recursive() {
				badRec = cloneLabel(d)
				badRec.In.Path[ei] = core.RecursiveEdge(e.S(), 0, e.I())
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no item with a recursive edge in its consuming path")
	}

	planned := core.NewQuerySession()
	defer planned.Close()
	planned.EnsurePlan(nil)
	askers := []struct {
		name string
		ask  func(vl *core.ViewLabel, d1, d2 core.DataLabel) (bool, error)
	}{
		{"bare", (*core.ViewLabel).DependsOn},
		{"plan", planned.DependsOn},
	}
	for _, variant := range allVariants {
		vl, err := scheme.LabelView(view.Default(spec), variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []*core.ViewLabel{vl, vl.WithMatrixFree()} {
			for _, a := range askers {
				// Valid queries first, so the plan's slots for the corrupted
				// edges' productions are already filled.
				if _, err := a.ask(label, initial, mid); err != nil {
					t.Fatalf("%s, variant %v: %v", a.name, variant, err)
				}
				if _, err := a.ask(label, mid, final); err != nil {
					t.Fatalf("%s, variant %v: %v", a.name, variant, err)
				}
				for b := range badIns {
					// Case III chains the I matrices along the whole corrupted path.
					if _, err := a.ask(label, initial, badIns[b]); err == nil {
						t.Fatalf("%s, variant %v accepted a consuming path ending in %v", a.name, variant, badIns[b].In)
					}
					// Case IV chains the O matrices along the whole corrupted path.
					if _, err := a.ask(label, badOuts[b], final); err == nil {
						t.Fatalf("%s, variant %v accepted a producing path ending in %v", a.name, variant, badOuts[b].Out)
					}
				}
				if _, err := a.ask(label, initial, badRec); err == nil {
					t.Fatalf("%s, variant %v accepted a recursive edge with offset 0", a.name, variant)
				}
			}
		}
	}
}

// TestDependsOnRejectsOutOfRangePorts: a port index outside its reachability
// matrix is an error on every point query, never a panic or a silent false.
// Each case of Algorithm 2 is probed with either item's port out of range:
// the first item's selects the row of the case's chain, the second's the
// entry read from it. The label and the index-resolved queries must fail;
// the set scans over the same index simply exclude the pair.
func TestDependsOnRejectsOutOfRangePorts(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, labeler := labeledRun(t, scheme, 62, 120)
	probe, err := scheme.LabelView(view.Default(spec), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	var initial, final, src, dst core.DataLabel
	var found bool
	for _, x := range r.Items {
		d, _ := labeler.Label(x.ID)
		switch {
		case !d.Out.Present():
			initial = d
		case !d.In.Present():
			final = d
		}
		for _, y := range r.Items {
			e, _ := labeler.Label(y.ID)
			if !found && d.Out.Present() && d.In.Present() && e.Out.Present() && e.In.Present() {
				found, _ = probe.DependsOn(d, e)
				src, dst = d, e
			}
		}
	}
	if !initial.In.Present() || !final.Out.Present() || !found {
		t.Fatal("run lacks an initial input, a final output or a dependent pair of intermediate items")
	}
	// Each case's pair, and a copy of the first or the second item with its
	// port on that case's side set to port.
	type pair struct {
		name   string
		d1, d2 core.DataLabel
	}
	var pairs []pair
	for _, port := range []int32{-1, 99} {
		for _, c := range []pair{{"II", initial, final}, {"III", initial, dst}, {"IV", src, final}, {"main", src, dst}} {
			d1, d2 := cloneLabel(c.d1), cloneLabel(c.d2)
			if d1.Out.Present() {
				d1.Out.Port = port
			} else {
				d1.In.Port = port
			}
			pairs = append(pairs, pair{fmt.Sprintf("case %s, first port %d", c.name, port), d1, c.d2})
			if d2.In.Present() {
				d2.In.Port = port
			} else {
				d2.Out.Port = port
			}
			pairs = append(pairs, pair{fmt.Sprintf("case %s, second port %d", c.name, port), c.d1, d2})
		}
	}

	for _, variant := range allVariants {
		vl, err := scheme.LabelView(view.Default(spec), variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []*core.ViewLabel{vl, vl.WithMatrixFree()} {
			for _, p := range pairs {
				if _, err := label.DependsOn(p.d1, p.d2); err == nil {
					t.Errorf("variant %v: %s: DependsOn accepted (%v, %v)", variant, p.name, p.d1, p.d2)
				}
				idx := core.BuildItemIndex(0, 2, func(id int) (core.DataLabel, bool) {
					return [...]core.DataLabel{p.d1, p.d2}[id-1], true
				})
				s := core.NewQuerySession()
				s.EnsurePlan(idx)
				if _, err := s.DependsOnIndexed(label, idx, 1, 2); err == nil {
					t.Errorf("variant %v: %s: DependsOnIndexed accepted (%v, %v)", variant, p.name, p.d1, p.d2)
				}
				deps, derr := s.DepsRow(label, idx, 2)
				revDeps, rerr := s.RevDepsRow(label, idx, 1)
				if derr != nil || rerr != nil || deps.Get(0, 1) || revDeps.Get(0, 2) {
					t.Errorf("variant %v: %s: scans answer Deps(2) (%v, %v), RevDeps(1) (%v, %v)", variant, p.name, deps, derr, revDeps, rerr)
				}
				s.Close()
			}
		}
	}
}
