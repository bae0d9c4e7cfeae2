package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/run"
	"repro/internal/workflow"
)

// RunLabeler is φr: it observes a run derivation and assigns every data item
// its label as soon as the item is produced (Section 4.2.3). Labels are never
// modified after assignment. The labeler maintains, for every module instance
// of the run, the path of edge labels from the root of the compressed parse
// tree to the node representing the instance, in one arena; a data label is
// two (owner instance, port index) references, built into a value on read.
//
// Item and instance IDs are dense and allocation-ordered (run.Deriver),
// so the labeler only ever appends, and only its append path writes.
type RunLabeler struct {
	scheme *Scheme
	items  []itemRecord // items[itemID-1]
	edges  []EdgeLabel  // the path arena
	ends   []int32      // instance id's path is edges[ends[id]:ends[id+1]]
}

// itemRecord is a data item's label: an instance of -1 is an absent port.
type itemRecord struct {
	outInst, outPort int32
	inInst, inPort   int32
}

// ItemRecordBytes is what a run labeler keeps per data item.
const ItemRecordBytes = int(unsafe.Sizeof(itemRecord{}))

// Count returns the number of labeled data items.
func (l *RunLabeler) Count() int { return len(l.items) }

// Label returns the label assigned to the data item with the given ID.
func (l *RunLabeler) Label(itemID int) (DataLabel, bool) {
	if itemID < 1 || itemID > len(l.items) {
		return DataLabel{}, false
	}
	r := l.items[itemID-1]
	return DataLabel{Out: l.port(r.outInst, r.outPort), In: l.port(r.inInst, r.inPort)}, true
}

func (l *RunLabeler) port(inst, port int32) PortLabel {
	if inst < 0 {
		return PortLabel{}
	}
	return PortLabel{Path: l.path(inst), Port: port, owner: inst + 1}
}

// path returns instance inst's path, capped so no append reaches the arena.
func (l *RunLabeler) path(inst int32) []EdgeLabel {
	end := l.ends[inst+1]
	return l.edges[l.ends[inst]:end:end]
}

// NewRunLabeler returns a labeler for runs of the scheme's specification.
// Attach it to a run with run.Run.AddObserver, or feed it OnInit and then
// every step a run.Deriver returns.
func (s *Scheme) NewRunLabeler() *RunLabeler {
	return &RunLabeler{scheme: s, ends: []int32{0}}
}

// Prefix returns a length-capped copy of the labeler: a caller may query it
// while the labeler keeps appending, as no later label shows through it.
func (l *RunLabeler) Prefix() RunLabeler {
	return RunLabeler{scheme: l.scheme, items: slices.Clip(l.items), edges: slices.Clip(l.edges), ends: slices.Clip(l.ends)}
}

// reserve sizes the table for the steps, which a run.Deriver returned in
// order after every step labeled so far, so that labeling them grows no
// slice and leaves no spare capacity. The items and instances of a step come
// from its template, and each new instance's path is its parent's plus the
// edges its placement case adds (Scheme.placements). Capacity past what the
// table can hold, or for a step OnStep refuses, is not reserved; labeling
// such steps fails anyway.
//
//fvlvet:label-append
func (l *RunLabeler) reserve(steps []run.Step) {
	items, insts := len(l.items), len(l.ends)-1
	for i := range steps {
		items += len(steps[i].Edges)
		insts += len(steps[i].Nodes)
	}
	if items > math.MaxInt32 || insts >= math.MaxInt32 {
		return
	}
	// lens[id] is the length of instance id's path.
	lens := make([]int32, len(l.ends)-1, insts)
	for id := range lens {
		lens[id] = l.ends[id+1] - l.ends[id]
	}
	edges := int(l.ends[len(l.ends)-1])
	for i := range steps {
		st := &steps[i]
		growth := l.scheme.placements(st.Prod)
		if st.Instance < 0 || st.Instance >= len(lens) || len(growth) != len(st.Nodes) {
			return
		}
		for _, g := range growth {
			n := lens[st.Instance] + int32(g)
			lens = append(lens, n)
			edges += int(n)
		}
		if edges > math.MaxInt32 {
			return
		}
	}
	// An exact capacity: slices.Grow would round it up to a size class.
	l.items = append(make([]itemRecord, 0, items), l.items...)
	l.ends = append(make([]int32, 0, insts+1), l.ends...)
	l.edges = append(make([]EdgeLabel, 0, edges), l.edges...)
}

// pathGrowth returns how many edges the path of an RHS node of the module
// adds to its parent's, in a step expanding lhs: one for an ordinary child
// (case 1 of the dynamic labeling algorithm), none for a child that
// continues the parent's linear recursion and replaces its last edge (case
// 2a), and two for a child that starts a new recursion (case 2b). A module
// is placed as recursive exactly when it lies on one of the scheme's cycles;
// a basic scheme has none.
func (s *Scheme) pathGrowth(lhs, module string) int {
	c, _, ok := s.cycleOf(module)
	if !ok {
		return 1
	}
	if l, _, ok := s.cycleOf(lhs); ok && l == c {
		return 0
	}
	return 2
}

// placements returns the placement case (pathGrowth) of every RHS node of
// the 1-based production k, or nil when the specification has no such
// production.
func (s *Scheme) placements(k int) []uint8 {
	if k < 1 || k >= len(s.growthAt) {
		return nil
	}
	return s.growth[s.growthAt[k-1]:s.growthAt[k]]
}

// OnInit labels the initial inputs and final outputs of a run of the
// specification (the ports of the start module, numbered as run.Deriver
// documents). If the start module is recursive, the root of the compressed
// parse tree is a recursive node and the start instance is its first child.
func (l *RunLabeler) OnInit(spec *workflow.Specification) error {
	if spec != l.scheme.Spec {
		return fmt.Errorf("core: run was derived from a different specification: %w", faults.ErrForeignLabel)
	}
	start := spec.Grammar.Start
	var path []EdgeLabel
	if s, t, ok := l.scheme.cycleOf(start); ok {
		path = []EdgeLabel{RecursiveEdge(s, t, 1)}
	}
	if err := l.place(0, nil, path...); err != nil {
		return err
	}
	// A start port's index is below its item's ID, which assign bounds.
	m := spec.Grammar.Modules[start]
	for x := 0; x < m.In; x++ {
		if err := l.assign(x+1, itemRecord{outInst: -1, inInst: 0, inPort: int32(x)}); err != nil {
			return err
		}
	}
	for x := 0; x < m.Out; x++ {
		if err := l.assign(m.In+x+1, itemRecord{outInst: 0, outPort: int32(x), inInst: -1}); err != nil {
			return err
		}
	}
	return nil
}

// place records the path of the next instance: prefix (which may alias the
// arena), then edges.
//
//fvlvet:label-append
func (l *RunLabeler) place(instID int, prefix []EdgeLabel, edges ...EdgeLabel) error {
	if instID != len(l.ends)-1 {
		return fmt.Errorf("core: instance %d placed out of order: the labeler expects instance %d", instID, len(l.ends)-1)
	}
	end := len(l.edges) + len(prefix) + len(edges)
	if instID >= math.MaxInt32 || end > math.MaxInt32 {
		return fmt.Errorf("core: instance %d does not fit the label table", instID)
	}
	l.edges = append(append(l.edges, prefix...), edges...)
	l.ends = append(l.ends, int32(end))
	return nil
}

// assign records the label of the next data item.
//
//fvlvet:label-append
func (l *RunLabeler) assign(itemID int, r itemRecord) error {
	if itemID != len(l.items)+1 {
		return fmt.Errorf("core: item %d labeled out of order: the labeler expects item %d", itemID, len(l.items)+1)
	}
	if itemID > math.MaxInt32 {
		return fmt.Errorf("core: item %d does not fit the label table", itemID)
	}
	l.items = append(l.items, r)
	return nil
}

// OnStep places the instances created by the step into the compressed parse
// tree (cases 1, 2a and 2b of the dynamic labeling algorithm) and labels the
// data items the step introduced. The step alone carries all it needs: the
// expanded instance's path was placed when the instance was created.
func (l *RunLabeler) OnStep(step *run.Step) error {
	if step.Instance < 0 || step.Instance >= len(l.ends)-1 {
		return fmt.Errorf("core: instance %d was never placed in the parse tree", step.Instance)
	}
	growth := l.scheme.placements(step.Prod)
	if len(growth) != len(step.Nodes) {
		return fmt.Errorf("core: step %d does not match production %d of the specification", step.Index, step.Prod)
	}
	parentPath := l.path(int32(step.Instance))
	k := step.Prod

	for ni, module := range step.Nodes {
		i := ni + 1 // 1-based position within the production RHS
		id := step.FirstInstance + ni
		var err error
		switch growth[ni] {
		case 1:
			// Case 1: ordinary child of the parent's node.
			err = l.place(id, parentPath, NonRecursiveEdge(k, i))
		case 0:
			// Case 2a: the child continues the parent's linear recursion; it
			// becomes the next sibling of the parent under the enclosing
			// recursive node.
			if len(parentPath) == 0 || !parentPath[len(parentPath)-1].Recursive() {
				return fmt.Errorf("core: recursive instance %d has no enclosing recursive node", step.Instance)
			}
			last := parentPath[len(parentPath)-1]
			if last.I() >= MaxEdgeChild {
				return fmt.Errorf("core: recursion index of instance %d outgrows an edge label (%d)", id, MaxEdgeChild)
			}
			err = l.place(id, parentPath[:len(parentPath)-1], RecursiveEdge(last.S(), last.T(), last.I()+1))
		default:
			// Case 2b: a new recursion starts below the parent: a fresh
			// recursive node is inserted with the child as its first element.
			s, t, ok := l.scheme.cycleOf(module)
			if !ok {
				return fmt.Errorf("core: module %q is recursive but has no cycle", module)
			}
			err = l.place(id, parentPath, NonRecursiveEdge(k, i), RecursiveEdge(s, t, 1))
		}
		if err != nil {
			return err
		}
	}

	for j, e := range step.Edges {
		if e.FromPort > math.MaxInt32 || e.ToPort > math.MaxInt32 {
			return fmt.Errorf("core: item %d has a port index past what a label holds (%d)", step.FirstItem+j, math.MaxInt32)
		}
		// Both ports are fresh ports of children placed above.
		r := itemRecord{
			outInst: int32(step.FirstInstance + e.FromNode), outPort: int32(e.FromPort),
			inInst: int32(step.FirstInstance + e.ToNode), inPort: int32(e.ToPort),
		}
		if err := l.assign(step.FirstItem+j, r); err != nil {
			return err
		}
	}
	return nil
}

// LabelRun is a convenience helper that labels an already-derived run by
// replaying its derivation (OnInit followed by every recorded step, in
// order). The labels produced are identical to those an online labeler
// attached before derivation would have produced.
func (s *Scheme) LabelRun(r *run.Run) (*RunLabeler, error) {
	return s.LabelRunContext(context.Background(), r)
}

// LabelRunContext is LabelRun with cancellation, through LabelSteps.
func (s *Scheme) LabelRunContext(ctx context.Context, r *run.Run) (*RunLabeler, error) {
	l := s.NewRunLabeler()
	if err := l.OnInit(r.Spec); err != nil {
		return nil, err
	}
	if err := l.LabelSteps(ctx, r.Steps); err != nil {
		return nil, err
	}
	return l, nil
}

// LabelSteps labels a known list of steps, which a run.Deriver returned in
// order after every step labeled so far (after OnInit, for a new labeler):
// it sizes the table for all of them once, then labels them in order, so the
// table ends at its exact size. The context is observed every 256 steps, so
// canceling it aborts with an error wrapping faults.ErrCanceled. Every
// labeling of a known step list goes through it: Scheme.LabelRun and a
// restored live session.
func (l *RunLabeler) LabelSteps(ctx context.Context, steps []run.Step) error {
	l.reserve(steps)
	for i := range steps {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: run labeling canceled at step %d of %d: %w (%v)", i, len(steps), faults.ErrCanceled, err)
			}
		}
		if err := l.OnStep(&steps[i]); err != nil {
			return fmt.Errorf("core: labeling step %d: %w", steps[i].Index, err)
		}
	}
	return nil
}

var _ run.Observer = (*RunLabeler)(nil)
