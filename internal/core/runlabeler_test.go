package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// recordingObserver snapshots every label as soon as it is assigned and
// verifies, after every later step, that no previously assigned label was
// modified — the defining property of a dynamic labeling scheme
// (Definition 10: "the assigned labels cannot be modified subsequently").
type recordingObserver struct {
	t       *testing.T
	labeler *core.RunLabeler
	frozen  map[int]string
}

func (o *recordingObserver) OnInit(spec *workflow.Specification) error {
	if err := o.labeler.OnInit(spec); err != nil {
		return err
	}
	o.snapshot()
	return nil
}

func (o *recordingObserver) OnStep(s *run.Step) error {
	if err := o.labeler.OnStep(s); err != nil {
		return err
	}
	o.verify()
	o.snapshot()
	return nil
}

func (o *recordingObserver) snapshot() {
	for id := 1; id <= o.labeler.Count(); id++ {
		if _, ok := o.frozen[id]; !ok {
			l, _ := o.labeler.Label(id)
			o.frozen[id] = l.String()
		}
	}
}

func (o *recordingObserver) verify() {
	for id, want := range o.frozen {
		got, ok := o.labeler.Label(id)
		if !ok {
			o.t.Fatalf("label for item %d disappeared", id)
		}
		if got.String() != want {
			o.t.Fatalf("label for item %d changed from %s to %s", id, want, got)
		}
	}
}

func TestLabelsAreNeverModified(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := run.New(spec)
	obs := &recordingObserver{t: t, labeler: scheme.NewRunLabeler(), frozen: map[int]string{}}
	if err := r.AddObserver(obs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for r.Size() < 200 {
		frontier := r.Frontier()
		if len(frontier) == 0 {
			break
		}
		inst, _ := r.Instance(frontier[rng.Intn(len(frontier))])
		prods := spec.Grammar.ProductionsFor(inst.Module)
		if _, err := r.Apply(inst.ID, prods[rng.Intn(len(prods))]); err != nil {
			t.Fatal(err)
		}
	}
	if obs.labeler.Count() != r.Size() {
		t.Fatalf("labeled %d of %d items", obs.labeler.Count(), r.Size())
	}
}

func TestObserverAttachedAfterDerivationSeesSameLabels(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 120, Rand: rand.New(rand.NewSource(23))})
	if err != nil {
		t.Fatal(err)
	}
	online := scheme.NewRunLabeler()
	// Replays the recorded derivation.
	if err := r.AddObserver(online); err != nil {
		t.Fatal(err)
	}
	replayed, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range r.Items {
		a, _ := online.Label(item.ID)
		b, _ := replayed.Label(item.ID)
		if a.String() != b.String() {
			t.Fatalf("item %d: online label %s != replayed label %s", item.ID, a, b)
		}
	}
}

func TestLabelLengthGrowsLogarithmically(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	sizes := []int{250, 500, 1000, 2000, 4000}
	maxBits := make([]int, len(sizes))
	for si, size := range sizes {
		r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(int64(40 + si)))})
		if err != nil {
			t.Fatal(err)
		}
		labeler, err := scheme.LabelRun(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, item := range r.Items {
			l, _ := labeler.Label(item.ID)
			if n := codec.SizeBits(l); n > maxBits[si] {
				maxBits[si] = n
			}
		}
		// O(log n) with a small constant: allow a generous 12*log2(n)+64 bits.
		bound := int(12*math.Log2(float64(r.Size()))) + 64
		if maxBits[si] > bound {
			t.Fatalf("run of size %d has a %d-bit label, exceeding the O(log n) bound %d", r.Size(), maxBits[si], bound)
		}
	}
	// Doubling the run size must not multiply the label length: the growth
	// from the smallest to the largest run (16x data) stays within +64 bits.
	if maxBits[len(maxBits)-1] > maxBits[0]+64 {
		t.Fatalf("label length grew from %d to %d bits over a 16x size increase; not logarithmic", maxBits[0], maxBits[len(maxBits)-1])
	}
}

func TestBasicSchemeLabelsGrowLinearlyOnFigure10(t *testing.T) {
	spec := workloads.Figure10Example()
	scheme, err := core.NewSchemeBasic(spec)
	if err != nil {
		t.Fatal(err)
	}
	codec := scheme.Codec()
	max := func(size int, seed int64) int {
		r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		labeler, err := scheme.LabelRun(r)
		if err != nil {
			t.Fatal(err)
		}
		m := 0
		for _, item := range r.Items {
			l, _ := labeler.Label(item.ID)
			if n := codec.SizeBits(l); n > m {
				m = n
			}
		}
		return m
	}
	small := max(40, 61)
	large := max(400, 62)
	// The basic parse tree has depth proportional to the run, so a 10x larger
	// run must produce clearly longer labels (Theorem 6 lower bound is linear).
	if large < 4*small {
		t.Fatalf("basic-scheme labels grew only from %d to %d bits on a 10x larger run; expected roughly linear growth", small, large)
	}
}

func TestRunLabelerRejectsForeignRun(t *testing.T) {
	specA := workloads.PaperExample()
	specB := workloads.PaperExample()
	scheme, err := core.NewScheme(specA)
	if err != nil {
		t.Fatal(err)
	}
	r := run.New(specB)
	if _, err := scheme.LabelRun(r); err == nil {
		t.Fatalf("LabelRun must reject runs derived from a different specification")
	}
}

// TestRunLabelerRefusesStepsOutOfOrder: the labeler appends instances and
// items in ID order, so a step it has already seen, or a second OnInit,
// fails instead of relabeling; and a step that names an instance never
// placed or a production the specification lacks fails, in OnStep and in
// LabelSteps, which sizes the table from the steps before labeling them.
func TestRunLabelerRefusesStepsOutOfOrder(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 60, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := labeler.OnStep(&r.Steps[len(r.Steps)-1]); err == nil {
		t.Fatal("replaying the last step succeeded")
	}
	if err := labeler.OnInit(r.Spec); err == nil {
		t.Fatal("a second OnInit succeeded")
	}
	if labeler.Count() != len(r.Items) {
		t.Fatalf("refused calls changed the label count to %d, want %d", labeler.Count(), len(r.Items))
	}
	unplaced, foreign := r.Steps[0], r.Steps[0]
	unplaced.Instance = len(r.Instances)
	foreign.Prod = len(spec.Grammar.Productions) + 1
	for _, bad := range []run.Step{unplaced, foreign} {
		l := scheme.NewRunLabeler()
		if err := l.OnInit(spec); err != nil {
			t.Fatal(err)
		}
		if err := l.OnStep(&bad); err == nil {
			t.Fatalf("OnStep labeled step %+v", bad)
		}
		if err := l.LabelSteps(context.Background(), []run.Step{bad}); err == nil {
			t.Fatalf("LabelSteps labeled step %+v", bad)
		}
	}
}

func TestViewLabelSizesAreOrderedAcrossVariants(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := view.Default(spec)
	var bits [3]int
	for i, variant := range allVariants {
		vl, err := scheme.LabelView(v, variant)
		if err != nil {
			t.Fatal(err)
		}
		bits[i] = vl.SizeBits()
		if bits[i] <= 0 {
			t.Fatalf("view label for %v has %d bits", variant, bits[i])
		}
	}
	if !(bits[0] <= bits[1] && bits[1] <= bits[2]) {
		t.Fatalf("view label sizes should grow from space-efficient to query-efficient, got %v", bits)
	}
	// All of them are constant-size: well under a kilobyte for this grammar.
	if bits[2] > 8*1024 {
		t.Fatalf("query-efficient view label is %d bits; expected a small constant", bits[2])
	}
}

func TestViewLabelStartDeps(t *testing.T) {
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := scheme.LabelView(view.Default(spec), core.VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !vl.StartDeps().IsFull() {
		t.Fatalf("λ*(S) of the default view over the paper example must be complete, got %v", vl.StartDeps())
	}
}

// TestLabelRunSharesInstancePaths pins the memory shape of run labels: every
// port label created at one instance aliases that instance's path, capped so
// no append can reach the shared array, and labeling allocates little beyond
// one path per instance and the labels themselves.
func TestLabelRunSharesInstancePaths(t *testing.T) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 3000, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(3, func() {
		if _, err := scheme.LabelRun(r); err != nil {
			t.Fatal(err)
		}
	})
	if bound := float64(3*len(r.Items) + len(r.Instances) + 64); allocs > bound {
		t.Errorf("LabelRun made %.0f allocations for %d items and %d instances, want at most %.0f",
			allocs, len(r.Items), len(r.Instances), bound)
	}

	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	pathAt := map[int]*core.EdgeLabel{} // owner instance -> its path's array
	shared := 0
	check := func(portID int, p core.PortLabel) {
		if cap(p.Path) != len(p.Path) {
			t.Fatalf("port %d: path has cap %d, len %d", portID, cap(p.Path), len(p.Path))
		}
		if len(p.Path) == 0 {
			return
		}
		port, _ := r.Port(portID)
		data := unsafe.SliceData(p.Path)
		if prev, ok := pathAt[port.Owner]; !ok {
			pathAt[port.Owner] = data
		} else if prev != data {
			t.Fatalf("port %d: its label does not share instance %d's path", portID, port.Owner)
		} else {
			shared++
		}
	}
	for _, item := range r.Items {
		d, _ := labeler.Label(item.ID)
		if d.Out.Present() {
			check(item.Src, d.Out)
		}
		if d.In.Present() {
			check(item.Dst, d.In)
		}
	}
	if shared == 0 {
		t.Fatal("no two port labels were created at one instance")
	}
}
