// Package run implements workflow runs as derivation objects: starting from
// the start module, productions are applied online (Definition 10's
// derivation-based model), creating module instances, port instances and data
// items. A Deriver keeps only the frontier of a derivation and returns each
// step's new instances and items; a Run adds the recorded history. It also
// implements the projection of a run onto a view and a ground-truth
// reachability oracle used for testing and as a naive baseline.
package run

import (
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

// Observer is notified as the run is derived. OnInit is called once with the
// run's specification, before any step (the start instance and the initial
// items are a function of it, see Deriver); OnStep is called after every
// production application. An observer sees nothing but the step, so it can
// only use state created at or before the step: this is what makes a
// labeling scheme dynamic.
type Observer interface {
	OnInit(spec *workflow.Specification) error
	OnStep(s *Step) error
}

// Run is a (possibly partial) workflow run derived from a specification: a
// Deriver plus the recorded history of every instance, port, item and step.
type Run struct {
	Spec      *workflow.Specification
	Instances []Instance
	Ports     []PortInstance
	Items     []DataItem
	Steps     []Step

	d         *Deriver
	observers []Observer
}

// New creates a run consisting of the unexpanded start module with one data
// item per input port (the run's initial inputs) and one per output port (the
// run's final outputs), numbered as Deriver documents.
func New(spec *workflow.Specification) *Run {
	r := &Run{Spec: spec, d: NewTemplates(spec).NewDeriver()}
	start := spec.Grammar.Modules[spec.Grammar.Start]
	root := Instance{ID: 0, Module: spec.Grammar.Start, Parent: -1, Step: 0}
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

func (r *Run) newPort(owner int, kind workflow.PortKind, index int) int {
	id := len(r.Ports)
	r.Ports = append(r.Ports, PortInstance{ID: id, Owner: owner, Kind: kind, Index: index})
	return id
}

// AddObserver registers an observer and immediately replays the run derived
// so far (OnInit followed by OnStep for every recorded step), so labeling
// schemes can be attached either before or after derivation begins.
func (r *Run) AddObserver(obs Observer) error {
	if err := obs.OnInit(r.Spec); err != nil {
		return err
	}
	for i := range r.Steps {
		if err := obs.OnStep(&r.Steps[i]); err != nil {
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
func (r *Run) Frontier() []int { return r.d.Frontier() }

// IsComplete reports whether every composite instance has been expanded, i.e.
// the run is a member of L(G).
func (r *Run) IsComplete() bool { return r.d.IsComplete() }

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
// the given 1-based index (Deriver.Apply), records the instances, ports and
// data items the step created and notifies observers. The initial inputs
// and final outputs of the right-hand side are bound to the expanded
// instance's port instances; each internal data edge gets fresh ones.
func (r *Run) Apply(instanceID, prodIndex int) (*Step, error) {
	s, err := r.d.Apply(instanceID, prodIndex)
	if err != nil {
		return nil, err
	}
	for i, name := range s.Nodes {
		decl := r.Spec.Grammar.Modules[name]
		r.Instances = append(r.Instances, Instance{
			ID:        s.FirstInstance + i,
			Module:    name,
			Parent:    instanceID,
			Step:      s.Index,
			NodeIndex: i,
			Inputs:    make([]int, decl.In),
			Outputs:   make([]int, decl.Out),
		})
	}
	// Pointers into r.Instances are taken only after the appends, which may
	// reallocate the backing array.
	parent := &r.Instances[instanceID]
	parent.Prod = prodIndex
	children := r.Instances[s.FirstInstance:]
	for _, child := range children {
		parent.Children = append(parent.Children, child.ID)
	}
	for x, ref := range s.ins {
		children[ref.Node].Inputs[ref.Port] = parent.Inputs[x]
	}
	for x, ref := range s.outs {
		children[ref.Node].Outputs[ref.Port] = parent.Outputs[x]
	}
	for j, e := range s.Edges {
		src := r.newPort(s.FirstInstance+e.FromNode, workflow.OutPort, e.FromPort)
		dst := r.newPort(s.FirstInstance+e.ToNode, workflow.InPort, e.ToPort)
		children[e.FromNode].Outputs[e.FromPort] = src
		children[e.ToNode].Inputs[e.ToPort] = dst
		r.Items = append(r.Items, DataItem{ID: s.FirstItem + j, Src: src, Dst: dst, Step: s.Index, CreatedBy: instanceID})
	}

	r.Steps = append(r.Steps, s)
	recorded := &r.Steps[len(r.Steps)-1]
	for _, obs := range r.observers {
		if err := obs.OnStep(recorded); err != nil {
			return nil, err
		}
	}
	return recorded, nil
}
