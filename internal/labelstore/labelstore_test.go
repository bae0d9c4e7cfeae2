package labelstore_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/labelstore"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

var allVariants = []core.Variant{core.VariantSpaceEfficient, core.VariantDefault, core.VariantQueryEfficient}

// saveLoad round-trips a snapshot through a file, the way wflabel
// -snapshot writes it and wfcheck -load reads it back. A snapshot is a pure
// function of the specification and the view definitions, so saving the
// loaded snapshot must reproduce the file byte for byte.
func saveLoad(t *testing.T, scheme *core.Scheme, labels []*core.ViewLabel) *labelstore.Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "labels.fvl")
	err := labelstore.WriteFileAtomic(path, func(f *os.File) error {
		return labelstore.Save(f, scheme, labels)
	})
	if err != nil {
		t.Fatalf("saving %s: %v", path, err)
	}
	snap, err := labelstore.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if len(snap.Labels) != len(labels) {
		t.Fatalf("loaded %d labels, saved %d", len(snap.Labels), len(labels))
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := labelstore.Save(&again, snap.Scheme, snap.Labels); err != nil {
		t.Fatalf("Save of the loaded snapshot: %v", err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatalf("Save(Load(x)) is %d bytes and differs from the %d-byte x", again.Len(), len(saved))
	}
	return snap
}

// checkIdenticalAnswers asks the built and the loaded label the same
// queries — over every pair of items for small runs, random pairs otherwise,
// hidden items included — and requires identical answers and identical
// error-ness.
func checkIdenticalAnswers(t *testing.T, built, loaded *core.ViewLabel, labeler *core.RunLabeler, r *run.Run, pairs int, seed int64) {
	t.Helper()
	check := func(d1, d2 int) {
		l1, ok1 := labeler.Label(d1)
		l2, ok2 := labeler.Label(d2)
		if !ok1 || !ok2 {
			t.Fatalf("missing label for item %d or %d", d1, d2)
		}
		wantAns, wantErr := built.DependsOn(l1, l2)
		gotAns, gotErr := loaded.DependsOn(l1, l2)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("DependsOn(%d,%d): built err=%v, loaded err=%v", d1, d2, wantErr, gotErr)
		}
		if wantAns != gotAns {
			t.Fatalf("DependsOn(%d,%d): built=%v, loaded=%v", d1, d2, wantAns, gotAns)
		}
	}
	n := r.Size()
	if pairs <= 0 {
		for d1 := 1; d1 <= n; d1++ {
			for d2 := 1; d2 <= n; d2++ {
				check(d1, d2)
			}
		}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < pairs; i++ {
		check(1+rng.Intn(n), 1+rng.Intn(n))
	}
}

// TestSnapshotRoundTripPaperExample persists the paper's running example
// with every view and every variant and checks the restored labels answer
// the full query workload identically to the built ones.
func TestSnapshotRoundTripPaperExample(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}

	views := []*view.View{view.Default(spec)}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := workloads.PaperAbstractionView(spec)
	if err != nil {
		t.Fatal(err)
	}
	views = append(views, sec, abs)

	for _, variant := range allVariants {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			var labels []*core.ViewLabel
			for _, v := range views {
				vl, err := scheme.LabelView(v, variant)
				if err != nil {
					t.Fatalf("labeling %q: %v", v.Name, err)
				}
				labels = append(labels, vl)
			}
			snap := saveLoad(t, scheme, labels)
			if snap.Scheme.IsBasic() {
				t.Fatal("compact scheme restored as basic")
			}
			for i, vl := range labels {
				loaded := snap.Labels[i]
				if loaded.View().Name != vl.View().Name {
					t.Fatalf("label %d restored as view %q, want %q", i, loaded.View().Name, vl.View().Name)
				}
				if loaded.Variant() != variant {
					t.Fatalf("view %q restored with variant %v, want %v", vl.View().Name, loaded.Variant(), variant)
				}
				if loaded.SizeBits() != vl.SizeBits() {
					t.Fatalf("view %q: restored label is %d bits, built label %d", vl.View().Name, loaded.SizeBits(), vl.SizeBits())
				}
				pairs := 2000
				if variant != core.VariantSpaceEfficient {
					pairs = 0 // exhaustive
				}
				checkIdenticalAnswers(t, vl, loaded, labeler, r, pairs, int64(100+i))
				// The matrix-free wrapper must work on restored labels too.
				checkIdenticalAnswers(t, vl.WithMatrixFree(), loaded.WithMatrixFree(), labeler, r, 500, int64(200+i))
			}
		})
	}
}

// TestSnapshotRoundTripRandomizedWorkloads runs the differential check on
// the BioAID-like workflow (the paper's main experimental subject) and a
// deep synthetic workflow, with random grey-box and black-box views, so the
// recursion caches and long recursion chains cross the format too.
func TestSnapshotRoundTripRandomizedWorkloads(t *testing.T) {
	syntheticParams := workloads.DefaultSyntheticParams()
	syntheticParams.WorkflowSize = 8
	syntheticParams.NestingDepth = 5
	cases := []struct {
		name string
		spec *workflow.Specification
	}{
		{"bioaid", workloads.BioAID()},
		{"synthetic", workloads.Synthetic(syntheticParams)},
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			scheme, err := core.NewScheme(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := workloads.RandomRun(tc.spec, workloads.RunOptions{TargetSize: 600, Rand: rand.New(rand.NewSource(int64(300 + ci)))})
			if err != nil {
				t.Fatal(err)
			}
			labeler, err := scheme.LabelRun(r)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(310 + ci)))
			var views []*view.View
			for _, mode := range []workloads.DependencyMode{workloads.GreyBox, workloads.BlackBox} {
				v, err := workloads.RandomView(tc.spec, workloads.ViewOptions{
					Name: fmt.Sprintf("%v-%s", mode, tc.name), Composites: 6, Mode: mode, Rand: rng,
				})
				if err != nil {
					t.Fatal(err)
				}
				views = append(views, v)
			}
			views = append(views, view.Default(tc.spec))
			for _, variant := range allVariants {
				var labels []*core.ViewLabel
				for _, v := range views {
					vl, err := scheme.LabelView(v, variant)
					if err != nil {
						t.Fatalf("labeling %q (%v): %v", v.Name, variant, err)
					}
					labels = append(labels, vl)
				}
				snap := saveLoad(t, scheme, labels)
				for i, vl := range labels {
					pairs := 400
					if variant == core.VariantQueryEfficient {
						pairs = 2000
					}
					checkIdenticalAnswers(t, vl, snap.Labels[i], labeler, r, pairs, int64(400+10*ci+i))
				}
			}
		})
	}
}

// TestSnapshotRoundTripBasicScheme covers the Theorem-1 fallback scheme,
// whose grammar is linear- but not strictly linear-recursive.
func TestSnapshotRoundTripBasicScheme(t *testing.T) {
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
	vl, err := scheme.LabelView(view.Default(spec), core.VariantQueryEfficient)
	if err != nil {
		t.Fatal(err)
	}
	snap := saveLoad(t, scheme, []*core.ViewLabel{vl})
	if !snap.Scheme.IsBasic() {
		t.Fatal("basic scheme restored as compact")
	}
	checkIdenticalAnswers(t, vl, snap.Labels[0], labeler, r, 0, 9)
}

// TestSnapshotLabelLookup exercises the by-name accessor.
func TestSnapshotLabelLookup(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	snap := saveLoad(t, scheme, []*core.ViewLabel{vl})
	if _, ok := snap.Label("default"); !ok {
		t.Fatal("snapshot lost the default view")
	}
	if _, ok := snap.Label("nope"); ok {
		t.Fatal("snapshot invented a view")
	}
}

// TestSaveRejectsForeignLabel guards the writer: a label computed over a
// different scheme's specification must not end up in the snapshot.
func TestSaveRejectsForeignLabel(t *testing.T) {
	specA := workloads.PaperExample()
	schemeA, err := core.NewScheme(specA)
	if err != nil {
		t.Fatal(err)
	}
	specB := workloads.PaperExample()
	schemeB, err := core.NewScheme(specB)
	if err != nil {
		t.Fatal(err)
	}
	vlB, err := schemeB.LabelView(view.Default(specB), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, schemeA, []*core.ViewLabel{vlB}); err == nil {
		t.Fatal("Save accepted a label over a different specification")
	}
}

// TestSaveRejectsDuplicateViewNames pins the writer/reader symmetry: Load
// rejects snapshots storing a view twice, so Save must refuse to produce
// one instead of writing an artifact its own reader calls corrupt.
func TestSaveRejectsDuplicateViewNames(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, scheme, []*core.ViewLabel{vl, vl}); err == nil {
		t.Fatal("Save accepted two labels for the same view name")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed Save still wrote %d bytes", buf.Len())
	}
}

// TestLoadRejectsCorruptedSnapshots flips, truncates and extends a valid
// snapshot and requires Load to fail cleanly on every mutation — the
// deterministic cousin of FuzzLoad — and LoadFile to fail on a missing file.
func TestLoadRejectsCorruptedSnapshots(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	var labels []*core.ViewLabel
	for _, variant := range allVariants {
		vl, err := scheme.LabelView(view.Default(spec), variant)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, vl)
	}
	// One view may appear once per snapshot; use three snapshots instead.
	for _, vl := range labels {
		var buf bytes.Buffer
		if err := labelstore.Save(&buf, scheme, []*core.ViewLabel{vl}); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()

		if _, err := labelstore.LoadBytes(valid[:len(valid)-3]); err == nil {
			t.Fatalf("%v: truncated snapshot accepted", vl.Variant())
		}
		extended := append(append([]byte(nil), valid...), 0, 1, 2)
		if _, err := labelstore.LoadBytes(extended); err == nil {
			t.Fatalf("%v: snapshot with trailing bytes accepted", vl.Variant())
		}
		for pos := 0; pos < len(valid); pos += 11 {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 0x40
			if _, err := labelstore.LoadBytes(mut); err == nil {
				t.Fatalf("%v: bit flip at byte %d accepted (checksum must catch payload damage)", vl.Variant(), pos)
			}
		}
	}
	if _, err := labelstore.LoadBytes(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := labelstore.LoadBytes([]byte("not a snapshot at all")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := labelstore.LoadFile(filepath.Join(t.TempDir(), "missing.fvl")); err == nil {
		t.Fatal("a missing snapshot file loaded without error")
	}
}
