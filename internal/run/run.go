// Package run implements workflow runs as derivation objects: starting from
// the start module, productions are applied online (Definition 10's
// derivation-based model), creating module instances, port instances and data
// items. It also implements the projection of a run onto a view and a
// ground-truth reachability oracle used for testing and as a naive baseline.
package run

import (
	"fmt"
	"slices"

	"repro/internal/workflow"
)

// PortInstance is one port of the run. A port instance is created either for
// the start module (the run's external inputs/outputs) or as the endpoint of
// an internal data edge introduced by a production; it is "first created" at
// its Owner instance with index Index, and is later inherited by descendants
// when the owner is expanded (matching the label semantics of Section 4.2.2).
type PortInstance struct {
	ID    int
	Owner int // instance ID where the port was first created
	Kind  workflow.PortKind
	Index int // port index at the owner at creation time
}

// DataItem is one data item (data edge) of the run. Initial inputs of the run
// have Src == -1; final outputs have Dst == -1; all other items connect an
// output port instance to an input port instance.
type DataItem struct {
	ID        int
	Src       int // producing output port instance, or -1
	Dst       int // consuming input port instance, or -1
	Step      int // derivation step that created the item (0 = initial)
	CreatedBy int // instance whose expansion created the item, or -1 for initial items
}

// Instance is one module instance of the run: either the start module (the
// root), or an occurrence introduced by applying a production.
type Instance struct {
	ID       int
	Module   string
	Parent   int // -1 for the root
	Prod     int // 1-based production applied to expand this instance; 0 if unexpanded
	Children []int
	Inputs   []int // port instance IDs bound to the input ports (len = module.In)
	Outputs  []int // port instance IDs bound to the output ports (len = module.Out)
	Step     int   // derivation step at which the instance was created
	// NodeIndex is the 0-based position of this occurrence within the
	// right-hand side of the production that created it (0 for the root).
	NodeIndex int
}

// Step records one derivation step: the expansion of Instance by production
// Prod, the instances it created and the data items it introduced.
type Step struct {
	Index        int // 1-based step number
	Instance     int
	Prod         int
	NewInstances []int
	NewItems     []int
}

// Observer is notified as the run is derived. OnInit is called once with the
// freshly created run (containing only the start instance and its
// inputs/outputs); OnStep is called after every production application.
// Observers must only inspect state created at or before the notified step:
// this is what makes a labeling scheme dynamic.
type Observer interface {
	OnInit(r *Run) error
	OnStep(r *Run, s *Step) error
}

// Run is a (possibly partial) workflow run derived from a specification.
type Run struct {
	Spec      *workflow.Specification
	Instances []Instance
	Ports     []PortInstance
	Items     []DataItem
	Steps     []Step

	observers []Observer
}

// New creates a run consisting of the unexpanded start module with one data
// item per input port (the run's initial inputs) and one per output port (the
// run's final outputs).
func New(spec *workflow.Specification) *Run {
	r := &Run{Spec: spec}
	start := spec.Grammar.Modules[spec.Grammar.Start]
	root := Instance{ID: 0, Module: start.Name, Parent: -1, Step: 0}
	for p := 0; p < start.In; p++ {
		pi := r.newPort(0, workflow.InPort, p)
		root.Inputs = append(root.Inputs, pi)
		r.Items = append(r.Items, DataItem{ID: len(r.Items) + 1, Src: -1, Dst: pi, Step: 0, CreatedBy: -1})
	}
	for p := 0; p < start.Out; p++ {
		pi := r.newPort(0, workflow.OutPort, p)
		root.Outputs = append(root.Outputs, pi)
		r.Items = append(r.Items, DataItem{ID: len(r.Items) + 1, Src: pi, Dst: -1, Step: 0, CreatedBy: -1})
	}
	r.Instances = append(r.Instances, root)
	return r
}

// Replay derives the run a step sequence produces: New, then Apply for each
// (instance, production) pair in order. A run is fully determined by its
// production applications, so this rebuilds a recorded run exactly. The
// run's slices are sized for the whole sequence up front, so a long replay
// does not regrow them step by step.
func Replay(spec *workflow.Specification, steps [][2]int) (*Run, error) {
	r := New(spec)
	prods := spec.Grammar.Productions
	nodes, edges := 0, 0
	for _, st := range steps {
		if p := st[1]; p >= 1 && p <= len(prods) {
			nodes += len(prods[p-1].RHS.Nodes)
			edges += len(prods[p-1].RHS.Edges)
		}
	}
	r.Instances = slices.Grow(r.Instances, nodes)
	r.Ports = slices.Grow(r.Ports, 2*edges)
	r.Items = slices.Grow(r.Items, edges)
	r.Steps = slices.Grow(r.Steps, len(steps))
	for i, st := range steps {
		if _, err := r.Apply(st[0], st[1]); err != nil {
			return nil, fmt.Errorf("run: replaying step %d of %d: %w", i+1, len(steps), err)
		}
	}
	return r, nil
}

func (r *Run) newPort(owner int, kind workflow.PortKind, index int) int {
	id := len(r.Ports)
	r.Ports = append(r.Ports, PortInstance{ID: id, Owner: owner, Kind: kind, Index: index})
	return id
}

// AddObserver registers an observer and immediately replays the run derived
// so far (OnInit followed by OnStep for every recorded step), so labeling
// schemes can be attached either before or after derivation begins.
func (r *Run) AddObserver(obs Observer) error {
	if err := obs.OnInit(r); err != nil {
		return err
	}
	for i := range r.Steps {
		if err := obs.OnStep(r, &r.Steps[i]); err != nil {
			return err
		}
	}
	r.observers = append(r.observers, obs)
	return nil
}

// Size returns the number of data items in the run, the size measure used
// throughout the paper.
func (r *Run) Size() int { return len(r.Items) }

// Frontier returns the IDs of unexpanded composite module instances.
func (r *Run) Frontier() []int {
	var out []int
	for _, inst := range r.Instances {
		if inst.Prod == 0 && r.Spec.Grammar.IsComposite(inst.Module) {
			out = append(out, inst.ID)
		}
	}
	return out
}

// IsComplete reports whether every composite instance has been expanded, i.e.
// the run is a member of L(G).
func (r *Run) IsComplete() bool { return len(r.Frontier()) == 0 }

// Item returns a data item by ID (IDs are 1-based).
func (r *Run) Item(id int) (DataItem, bool) {
	if id < 1 || id > len(r.Items) {
		return DataItem{}, false
	}
	return r.Items[id-1], true
}

// Port returns a port instance by ID.
func (r *Run) Port(id int) (PortInstance, bool) {
	if id < 0 || id >= len(r.Ports) {
		return PortInstance{}, false
	}
	return r.Ports[id], true
}

// Instance returns a module instance by ID.
func (r *Run) Instance(id int) (Instance, bool) {
	if id < 0 || id >= len(r.Instances) {
		return Instance{}, false
	}
	return r.Instances[id], true
}

// Apply expands the given composite module instance with the production of
// the given 1-based index. It creates one child instance per right-hand-side
// node, binds the initial inputs and final outputs of the right-hand side to
// the parent's port instances, creates fresh port instances and data items
// for the internal data edges, records the step and notifies observers.
func (r *Run) Apply(instanceID, prodIndex int) (*Step, error) {
	if instanceID < 0 || instanceID >= len(r.Instances) {
		return nil, fmt.Errorf("run: no instance %d", instanceID)
	}
	inst := &r.Instances[instanceID]
	if inst.Prod != 0 {
		return nil, fmt.Errorf("run: instance %d (%s) is already expanded", instanceID, inst.Module)
	}
	if prodIndex < 1 || prodIndex > len(r.Spec.Grammar.Productions) {
		return nil, fmt.Errorf("run: no production %d", prodIndex)
	}
	prod := r.Spec.Grammar.Productions[prodIndex-1]
	if prod.LHS != inst.Module {
		return nil, fmt.Errorf("run: production %d expands %q, not %q", prodIndex, prod.LHS, inst.Module)
	}
	w := prod.RHS
	stepIdx := len(r.Steps) + 1
	step := Step{Index: stepIdx, Instance: instanceID, Prod: prodIndex}

	// Create child instances with unbound ports. All appends happen before
	// any pointers into r.Instances are taken, because append may reallocate
	// the backing array.
	childIDs := make([]int, len(w.Nodes))
	for ni, name := range w.Nodes {
		decl := r.Spec.Grammar.Modules[name]
		child := Instance{
			ID:        len(r.Instances),
			Module:    name,
			Parent:    instanceID,
			Step:      stepIdx,
			NodeIndex: ni,
			Inputs:    make([]int, decl.In),
			Outputs:   make([]int, decl.Out),
		}
		for i := range child.Inputs {
			child.Inputs[i] = -1
		}
		for i := range child.Outputs {
			child.Outputs[i] = -1
		}
		r.Instances = append(r.Instances, child)
		childIDs[ni] = child.ID
		step.NewInstances = append(step.NewInstances, child.ID)
	}
	inst = &r.Instances[instanceID]
	inst.Children = append(inst.Children, childIDs...)
	children := make([]*Instance, len(w.Nodes))
	for ni, id := range childIDs {
		children[ni] = &r.Instances[id]
	}

	// Bind initial inputs / final outputs of W to the parent's ports.
	initIns, err := w.InitialInputs(r.Spec.Grammar)
	if err != nil {
		return nil, err
	}
	finalOuts, err := w.FinalOutputs(r.Spec.Grammar)
	if err != nil {
		return nil, err
	}
	if len(initIns) != len(inst.Inputs) || len(finalOuts) != len(inst.Outputs) {
		return nil, fmt.Errorf("run: production %d arity mismatch for %q", prodIndex, inst.Module)
	}
	for x, ref := range initIns {
		children[ref.Node].Inputs[ref.Port] = inst.Inputs[x]
	}
	for x, ref := range finalOuts {
		children[ref.Node].Outputs[ref.Port] = inst.Outputs[x]
	}

	// Create fresh port instances and data items for internal data edges.
	for _, e := range w.Edges {
		src := r.newPort(children[e.FromNode].ID, workflow.OutPort, e.FromPort)
		dst := r.newPort(children[e.ToNode].ID, workflow.InPort, e.ToPort)
		children[e.FromNode].Outputs[e.FromPort] = src
		children[e.ToNode].Inputs[e.ToPort] = dst
		item := DataItem{ID: len(r.Items) + 1, Src: src, Dst: dst, Step: stepIdx, CreatedBy: instanceID}
		r.Items = append(r.Items, item)
		step.NewItems = append(step.NewItems, item.ID)
	}

	// Every port of every child must now be bound (this is guaranteed by the
	// pairwise non-adjacency and arity checks of the grammar, but verify to
	// fail loudly on malformed specifications).
	for _, child := range children {
		for p, id := range child.Inputs {
			if id < 0 {
				return nil, fmt.Errorf("run: input port %d of %q left unbound by production %d", p, child.Module, prodIndex)
			}
		}
		for p, id := range child.Outputs {
			if id < 0 {
				return nil, fmt.Errorf("run: output port %d of %q left unbound by production %d", p, child.Module, prodIndex)
			}
		}
	}

	inst.Prod = prodIndex
	r.Steps = append(r.Steps, step)
	recorded := &r.Steps[len(r.Steps)-1]
	for _, obs := range r.observers {
		if err := obs.OnStep(r, recorded); err != nil {
			return nil, err
		}
	}
	return recorded, nil
}
