package run_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// deriveFull expands every frontier instance of the paper example run using
// the given choice function (instance module -> 1-based production index),
// stopping after maxSteps applications.
func deriveFull(t *testing.T, r *run.Run, choose func(module string, depth int) int, maxSteps int) {
	t.Helper()
	for steps := 0; steps < maxSteps; steps++ {
		frontier := r.Frontier()
		if len(frontier) == 0 {
			return
		}
		id := frontier[0]
		inst, _ := r.Instance(id)
		depth := 0
		for p := inst.Parent; p >= 0; {
			pi, _ := r.Instance(p)
			p = pi.Parent
			depth++
		}
		prod := choose(inst.Module, depth)
		if _, err := r.Apply(id, prod); err != nil {
			t.Fatalf("Apply(%d, %d): %v", id, prod, err)
		}
	}
	if !r.IsComplete() {
		t.Fatalf("run not complete after %d steps", maxSteps)
	}
}

// baseChoice always picks the non-recursive production for each composite of
// the paper example.
func baseChoice(module string, _ int) int {
	switch module {
	case "S":
		return 1
	case "A":
		return 3 // A -> (e, C)
	case "B":
		return 4
	case "C":
		return 5
	case "D":
		return 7 // D -> (f)
	case "E":
		return 8
	}
	return 0
}

// boundedRecursion recurses through A<->B and the D loop a bounded number of
// times before switching to base productions.
func boundedRecursion(limit int) func(string, int) int {
	return func(module string, depth int) int {
		switch module {
		case "S":
			return 1
		case "A":
			if depth < limit {
				return 2 // A -> (d, B, C)
			}
			return 3
		case "B":
			return 4
		case "C":
			return 5
		case "D":
			if depth < limit+4 {
				return 6 // D -> (f, D)
			}
			return 7
		case "E":
			return 8
		}
		return 0
	}
}

func TestNewRunHasInitialAndFinalItems(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	if r.Size() != 4 {
		t.Fatalf("initial size = %d, want 4 (2 inputs + 2 outputs of S)", r.Size())
	}
	if r.IsComplete() {
		t.Fatalf("fresh run with composite start must not be complete")
	}
	if got := r.Frontier(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Frontier = %v", got)
	}
	d1, ok := r.Item(1)
	if !ok || d1.Src != -1 || d1.Dst < 0 {
		t.Fatalf("item 1 should be an initial input: %+v", d1)
	}
	d3, ok := r.Item(3)
	if !ok || d3.Dst != -1 || d3.Src < 0 {
		t.Fatalf("item 3 should be a final output: %+v", d3)
	}
	if _, ok := r.Item(99); ok {
		t.Fatalf("nonexistent item found")
	}
	if _, ok := r.Port(-1); ok {
		t.Fatalf("nonexistent port found")
	}
	if _, ok := r.Instance(5); ok {
		t.Fatalf("nonexistent instance found")
	}
}

func TestApplyErrors(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	if _, err := r.Apply(7, 1); err == nil {
		t.Fatalf("apply to missing instance accepted")
	}
	if _, err := r.Apply(0, 99); err == nil {
		t.Fatalf("apply of missing production accepted")
	}
	if _, err := r.Apply(0, 2); err == nil {
		t.Fatalf("production for wrong module accepted")
	}
	if _, err := r.Apply(0, 1); err != nil {
		t.Fatalf("valid apply rejected: %v", err)
	}
	if _, err := r.Apply(0, 1); err == nil {
		t.Fatalf("double expansion accepted")
	}

	// A bare deriver refuses an atomic and an expanded instance, and each
	// refusal changes nothing: the next accepted step is numbered on from
	// the last accepted one.
	d := run.NewTemplates(spec).NewDeriver()
	last, err := d.Apply(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	atomic := -1
	for i, name := range last.Nodes {
		if len(spec.Grammar.ProductionsFor(name)) == 0 {
			atomic = last.FirstInstance + i
			break
		}
	}
	if atomic < 0 {
		t.Fatal("the first step created no atomic instance")
	}
	refuse := func(what string, id int) {
		t.Helper()
		if _, err := d.Apply(id, 1); err == nil {
			t.Fatalf("apply to %s instance %d accepted", what, id)
		}
		if got := d.Expandable(id); got != nil {
			t.Fatalf("%s instance %d is expandable by %v", what, id, got)
		}
		id = d.Frontier()[0]
		next, err := d.Apply(id, d.Expandable(id)[0])
		if err != nil {
			t.Fatal(err)
		}
		if next.Index != last.Index+1 || next.FirstInstance != last.FirstInstance+len(last.Nodes) ||
			next.FirstItem != last.FirstItem+len(last.Edges) || next.FirstPort != last.FirstPort+2*len(last.Edges) {
			t.Fatalf("after refusing %s instance %d, step %+v follows step %+v", what, id, next, last)
		}
		last = next
	}
	refuse("an atomic", atomic)
	refuse("an expanded", last.Instance)
}

// TestDeriverKeepsOnlyItsFrontier: deriving the 20,049-item probe run
// (BioAID, seed 1000) allocates a bounded few hundred bytes, not a record
// per instance, and leaves no frontier.
func TestDeriverKeepsOnlyItsFrontier(t *testing.T) {
	spec := workloads.BioAID()
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 20000, Rand: rand.New(rand.NewSource(1000))})
	if err != nil {
		t.Fatal(err)
	}
	templates := run.NewTemplates(spec)
	derive := func() *run.Deriver {
		d := templates.NewDeriver()
		for _, st := range r.Steps {
			if _, err := d.Apply(st.Instance, st.Prod); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	derive() // compiles every production the run applies
	// The least of three derivations, in case another goroutine allocates.
	least := uint64(math.MaxUint64)
	var d *run.Deriver
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d = derive()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("deriving %d items over %d instances in %d steps allocates %d bytes", r.Size(), len(r.Instances), len(r.Steps), least)
	if least > 1024 {
		t.Errorf("deriving the probe run allocates %d bytes, want at most 1024", least)
	}
	if f := d.Frontier(); f != nil || !d.IsComplete() {
		t.Errorf("a complete derivation has frontier %v", f)
	}
}

// TestReplayMatchesApply replays the step sequence of a partial recursive
// BioAID run into a bare Deriver and requires every step record and the
// frontier to equal the run's, and a step that does not apply to fail
// without changing the derivation.
func TestReplayMatchesApply(t *testing.T) {
	spec := workloads.BioAID()
	want, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 500, Rand: rand.New(rand.NewSource(3)), Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	d := run.NewTemplates(spec).NewDeriver()
	for i, st := range want.Steps {
		got, err := d.Apply(st.Instance, st.Prod)
		if err != nil {
			t.Fatalf("replaying step %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("step %d: replayed %+v, recorded %+v", i+1, got, st)
		}
	}
	if !reflect.DeepEqual(d.Frontier(), want.Frontier()) || d.IsComplete() || want.IsComplete() {
		t.Fatalf("replayed frontier %v, run frontier %v", d.Frontier(), want.Frontier())
	}
	if _, err := d.Apply(want.Steps[0].Instance, want.Steps[0].Prod); err == nil {
		t.Fatal("replay expanded an instance twice")
	}
	// The refused step changed nothing: the next step is numbered on from
	// the run's last one.
	id := want.Frontier()[0]
	prod := spec.Grammar.ProductionsFor(want.Instances[id].Module)[0]
	next, err := d.Apply(id, prod)
	if err != nil {
		t.Fatal(err)
	}
	if next.Index != len(want.Steps)+1 || next.FirstInstance != len(want.Instances) ||
		next.FirstItem != want.Size()+1 || next.FirstPort != len(want.Ports) {
		t.Fatalf("step after the replay is %+v; the run has %d steps, %d instances, %d items and %d ports",
			next, len(want.Steps), len(want.Instances), want.Size(), len(want.Ports))
	}
}

// TestTemplatesSharedAcrossDerivers: derivers of one Templates compile its
// productions on first use, so several goroutines deriving at once must
// each get the run's step records.
func TestTemplatesSharedAcrossDerivers(t *testing.T) {
	spec := workloads.BioAID()
	want, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 300, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	templates := run.NewTemplates(spec)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := templates.NewDeriver()
			for i, st := range want.Steps {
				got, err := d.Apply(st.Instance, st.Prod)
				if err != nil || !reflect.DeepEqual(got, st) {
					t.Errorf("step %d: derived %+v (%v), recorded %+v", i+1, got, err, st)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDerivationPortSharing(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	step, err := r.Apply(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(step.Nodes) != 6 {
		t.Fatalf("W1 should create 6 instances, got %d", len(step.Nodes))
	}
	if len(step.Edges) != 8 {
		t.Fatalf("W1 should create 8 data items, got %d", len(step.Edges))
	}
	// The initial inputs of W1 are bound to S's input port instances: the
	// first child (module a) inherits S's first input port.
	root, _ := r.Instance(0)
	child0, _ := r.Instance(step.FirstInstance)
	if child0.Module != "a" || child0.Inputs[0] != root.Inputs[0] {
		t.Fatalf("a did not inherit S's first input port: %+v vs %+v", child0.Inputs, root.Inputs)
	}
	// The last child (module d) provides S's final outputs.
	child5, _ := r.Instance(step.FirstInstance + 5)
	if child5.Module != "d" || child5.Outputs[0] != root.Outputs[0] || child5.Outputs[1] != root.Outputs[1] {
		t.Fatalf("d did not inherit S's output ports")
	}
}

func TestCompleteDerivationAndSizes(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	deriveFull(t, r, baseChoice, 1000)
	if !r.IsComplete() {
		t.Fatalf("run should be complete")
	}
	if r.Size() <= 4 {
		t.Fatalf("complete run should have created data items")
	}
	// Every intermediate item connects two port instances.
	for _, item := range r.Items {
		if item.Step > 0 && (item.Src < 0 || item.Dst < 0) {
			t.Fatalf("intermediate item %d has missing endpoint", item.ID)
		}
	}
}

func TestObserverReplayAndNotification(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	if _, err := r.Apply(0, 1); err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	if err := r.AddObserver(obs); err != nil {
		t.Fatal(err)
	}
	if obs.inits != 1 || obs.steps != 1 {
		t.Fatalf("replay: inits=%d steps=%d", obs.inits, obs.steps)
	}
	frontier := r.Frontier()
	if _, err := r.Apply(frontier[0], baseChoice(mustModule(t, r, frontier[0]), 0)); err != nil {
		t.Fatal(err)
	}
	if obs.steps != 2 {
		t.Fatalf("observer not notified of new step: %d", obs.steps)
	}
}

type countingObserver struct {
	inits, steps int
}

func (c *countingObserver) OnInit(*workflow.Specification) error { c.inits++; return nil }
func (c *countingObserver) OnStep(*run.Step) error               { c.steps++; return nil }
func mustModule(t *testing.T, r *run.Run, id int) (mod string) {
	t.Helper()
	inst, ok := r.Instance(id)
	if !ok {
		t.Fatalf("no instance %d", id)
	}
	return inst.Module
}

func TestProjectionDefaultViewVisibility(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	deriveFull(t, r, boundedRecursion(3), 1000)
	def := view.Default(spec)
	p, err := run.Project(r, def)
	if err != nil {
		t.Fatal(err)
	}
	// Under the default view of a complete run every item is visible and
	// every visible leaf is atomic.
	if p.Size() != r.Size() {
		t.Fatalf("default view hides items: %d vs %d", p.Size(), r.Size())
	}
	for _, leaf := range p.LeafInstances() {
		inst, _ := r.Instance(leaf)
		if spec.Grammar.IsComposite(inst.Module) {
			t.Fatalf("composite instance %s visible as leaf under default view of a complete run", inst.Module)
		}
	}
	if len(p.VisibleItems()) != r.Size() {
		t.Fatalf("VisibleItems length mismatch")
	}
	w := p.Workflow()
	if len(w.Nodes) != len(p.LeafInstances()) {
		t.Fatalf("projection workflow node count mismatch")
	}
}

func TestProjectionSecurityViewHidesItems(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	deriveFull(t, r, boundedRecursion(2), 1000)
	v, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := run.Project(r, v)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() >= r.Size() {
		t.Fatalf("security view should hide the items created inside C instances")
	}
	// Every hidden item was created inside a C (or deeper) instance.
	for _, item := range r.Items {
		if p.VisibleItem(item.ID) {
			continue
		}
		inst, _ := r.Instance(item.CreatedBy)
		if v.IsExpandable(inst.Module) {
			t.Fatalf("item %d hidden although created by expandable module %s", item.ID, inst.Module)
		}
	}
}

func TestOracleViewDependence(t *testing.T) {
	// The Example 8 phenomenon: a query about an input and an output of the
	// same C instance answers differently under the default view (fine-grained
	// lambda*(C) = upper-triangular) and the security view (black-box C).
	spec := workloads.PaperExample()
	r := run.New(spec)
	deriveFull(t, r, baseChoice, 1000)

	// Find a C instance and the data items attached to its second input and
	// first output (the pair where lambda*(C) says "no dependency").
	var cInst run.Instance
	found := false
	for _, inst := range r.Instances {
		if inst.Module == "C" {
			cInst = inst
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no C instance in run")
	}
	itemByDst := map[int]int{}
	itemBySrc := map[int]int{}
	for _, item := range r.Items {
		if item.Dst >= 0 {
			itemByDst[item.Dst] = item.ID
		}
		if item.Src >= 0 {
			itemBySrc[item.Src] = item.ID
		}
	}
	dIn := itemByDst[cInst.Inputs[1]]
	dOut := itemBySrc[cInst.Outputs[0]]
	if dIn == 0 || dOut == 0 {
		t.Fatalf("could not locate items on C's ports")
	}

	def := view.Default(spec)
	pDef, err := run.Project(r, def)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	pSec, err := run.Project(r, sec)
	if err != nil {
		t.Fatal(err)
	}

	gotDef, err := pDef.DependsOn(dIn, dOut)
	if err != nil {
		t.Fatal(err)
	}
	gotSec, err := pSec.DependsOn(dIn, dOut)
	if err != nil {
		t.Fatal(err)
	}
	if gotDef {
		t.Fatalf("default view: C's first output must not depend on its second input")
	}
	if !gotSec {
		t.Fatalf("security view: black-box C must make every output depend on every input")
	}
}

func TestOracleBoundaryConventions(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	deriveFull(t, r, baseChoice, 1000)
	def := view.Default(spec)
	p, err := run.Project(r, def)
	if err != nil {
		t.Fatal(err)
	}
	// Items 1,2 are initial inputs; 3,4 are final outputs.
	if got, _ := p.DependsOn(3, 1); got {
		t.Fatalf("nothing depends on a final output")
	}
	if got, _ := p.DependsOn(1, 2); got {
		t.Fatalf("an initial input depends on nothing")
	}
	if got, err := p.DependsOn(1, 3); err != nil || !got {
		t.Fatalf("final output 3 should depend on initial input 1 (lambda*(S) is complete): %v %v", got, err)
	}
	if _, err := p.DependsOn(1, 999); err == nil {
		t.Fatalf("query about unknown item accepted")
	}
}

func TestPartialRunProjectionUsesInducedDeps(t *testing.T) {
	// A partial run: S expanded but the A, C instances left unexpanded. The
	// default-view projection must treat them as atomic with lambda* deps.
	spec := workloads.PaperExample()
	r := run.New(spec)
	if _, err := r.Apply(0, 1); err != nil {
		t.Fatal(err)
	}
	def := view.Default(spec)
	p, err := run.Project(r, def)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != r.Size() {
		t.Fatalf("partial run projection should keep all items visible")
	}
	// Initial input 1 flows through a -> A -> ... -> final outputs.
	if got, _ := p.DependsOn(1, 3); !got {
		t.Fatalf("dependency through unexpanded composites lost")
	}
}

func TestProjectionRejectsDependencyQueriesOnHiddenItems(t *testing.T) {
	spec := workloads.PaperExample()
	r := run.New(spec)
	deriveFull(t, r, baseChoice, 1000)
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := run.Project(r, sec)
	if err != nil {
		t.Fatal(err)
	}
	hidden := -1
	for _, item := range r.Items {
		if !p.VisibleItem(item.ID) {
			hidden = item.ID
			break
		}
	}
	if hidden < 0 {
		t.Fatalf("expected some hidden item")
	}
	if _, err := p.DependsOn(1, hidden); err == nil {
		t.Fatalf("query about hidden item accepted")
	}
}

var _ workflow.ModuleLookup = (*workflow.Grammar)(nil)
