package core

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/run"
	"repro/internal/workflow"
)

// RunLabeler is φr: it observes a run derivation and assigns every data item
// its label as soon as the item is produced (Section 4.2.3). Labels are never
// modified after assignment. The labeler maintains, for every module instance
// of the run, the path of edge labels from the root of the compressed parse
// tree to the node representing the instance; port and data labels are formed
// from these paths, and every port label created at an instance shares that
// instance's path.
//
// Item and instance IDs are dense and allocation-ordered (run.Deriver),
// so both stores are slices the labeler only ever appends to.
type RunLabeler struct {
	scheme *Scheme

	// instPath[id] is the edge-label path of the tree node for instance id.
	// It is nil for the root of a non-recursive start module.
	instPath [][]EdgeLabel
	// labels[itemID-1] is the label assigned to data item itemID.
	labels []*DataLabel
}

// NewRunLabeler returns a labeler for runs of the scheme's specification.
// Attach it to a run with run.Run.AddObserver, or feed it OnInit and then
// every step a run.Deriver returns.
func (s *Scheme) NewRunLabeler() *RunLabeler {
	return &RunLabeler{scheme: s}
}

// Label returns the label assigned to the data item with the given ID.
func (l *RunLabeler) Label(itemID int) (*DataLabel, bool) {
	if itemID < 1 || itemID > len(l.labels) {
		return nil, false
	}
	return l.labels[itemID-1], true
}

// Prefix returns the labels assigned so far, indexed by item ID − 1. The
// slice is length-capped and labels are never modified, so a caller may hold
// it while the labeler keeps appending: no later label shows through it. The
// caller must not write to it.
func (l *RunLabeler) Prefix() []*DataLabel {
	n := len(l.labels)
	return l.labels[:n:n]
}

// Count returns the number of labeled data items.
func (l *RunLabeler) Count() int { return len(l.labels) }

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
	if err := l.place(0, path); err != nil {
		return err
	}
	m := spec.Grammar.Modules[start]
	for x := 0; x < m.In; x++ {
		if err := l.assign(x+1, &DataLabel{In: portLabel(path, x)}); err != nil {
			return err
		}
	}
	for x := 0; x < m.Out; x++ {
		if err := l.assign(m.In+x+1, &DataLabel{Out: portLabel(path, x)}); err != nil {
			return err
		}
	}
	return nil
}

// portLabel labels a port created at the instance whose path is given. The
// label aliases the path: paths are never modified once placed, and the
// capped slice keeps an append through the label from reaching the shared
// array.
func portLabel(path []EdgeLabel, port int) *PortLabel {
	return &PortLabel{Path: path[:len(path):len(path)], Port: port}
}

// place records the path of the next instance.
func (l *RunLabeler) place(instID int, path []EdgeLabel) error {
	if instID != len(l.instPath) {
		return fmt.Errorf("core: instance %d placed out of order: the labeler expects instance %d", instID, len(l.instPath))
	}
	l.instPath = append(l.instPath, path)
	return nil
}

// assign records the label of the next data item.
func (l *RunLabeler) assign(itemID int, d *DataLabel) error {
	if itemID != len(l.labels)+1 {
		return fmt.Errorf("core: item %d labeled out of order: the labeler expects item %d", itemID, len(l.labels)+1)
	}
	l.labels = append(l.labels, d)
	return nil
}

// OnStep places the instances created by the step into the compressed parse
// tree (cases 1, 2a and 2b of the dynamic labeling algorithm) and labels the
// data items the step introduced. The step alone carries all it needs: the
// expanded instance's path was placed when the instance was created.
func (l *RunLabeler) OnStep(step *run.Step) error {
	if step.Instance < 0 || step.Instance >= len(l.instPath) {
		return fmt.Errorf("core: instance %d was never placed in the parse tree", step.Instance)
	}
	parentPath := l.instPath[step.Instance]
	k := step.Prod
	parentRecursive := l.scheme.isRecursive(step.LHS)

	for ni, module := range step.Nodes {
		i := ni + 1 // 1-based position within the production RHS
		var path []EdgeLabel
		switch {
		case !l.scheme.isRecursive(module):
			// Case 1: ordinary child of the parent's node.
			path = appendEdge(parentPath, NonRecursiveEdge(k, i))
		case parentRecursive && l.scheme.sameCycle(step.LHS, module):
			// Case 2a: the child continues the parent's linear recursion; it
			// becomes the next sibling of the parent under the enclosing
			// recursive node.
			if len(parentPath) == 0 || !parentPath[len(parentPath)-1].Recursive {
				return fmt.Errorf("core: recursive instance %d has no enclosing recursive node", step.Instance)
			}
			last := parentPath[len(parentPath)-1]
			path = appendEdge(parentPath[:len(parentPath)-1], RecursiveEdge(last.S, last.T, last.I+1))
		default:
			// Case 2b: a new recursion starts below the parent: a fresh
			// recursive node is inserted with the child as its first element.
			s, t, ok := l.scheme.cycleOf(module)
			if !ok {
				return fmt.Errorf("core: module %q is recursive but has no cycle", module)
			}
			path = appendEdge(parentPath, NonRecursiveEdge(k, i), RecursiveEdge(s, t, 1))
		}
		if err := l.place(step.FirstInstance+ni, path); err != nil {
			return err
		}
	}

	for j, e := range step.Edges {
		// Both ports are fresh ports of children placed above.
		d := &DataLabel{
			Out: portLabel(l.instPath[step.FirstInstance+e.FromNode], e.FromPort),
			In:  portLabel(l.instPath[step.FirstInstance+e.ToNode], e.ToPort),
		}
		if err := l.assign(step.FirstItem+j, d); err != nil {
			return err
		}
	}
	return nil
}

// appendEdge returns a fresh path: the given one extended by edges. It is the
// only constructor of instance paths, so no two instances share an array
// that either could grow into.
func appendEdge(path []EdgeLabel, edges ...EdgeLabel) []EdgeLabel {
	out := make([]EdgeLabel, 0, len(path)+len(edges))
	out = append(out, path...)
	return append(out, edges...)
}

// LabelRun is a convenience helper that labels an already-derived run by
// replaying its derivation (OnInit followed by every recorded step, in
// order). The labels produced are identical to those an online labeler
// attached before derivation would have produced.
func (s *Scheme) LabelRun(r *run.Run) (*RunLabeler, error) {
	return s.LabelRunContext(context.Background(), r)
}

// LabelRunContext is LabelRun with cancellation: the context is observed
// every 256 derivation steps, so canceling it aborts the replay with an
// error wrapping faults.ErrCanceled. This is the single replay
// implementation — every caller that replays a derivation goes through it,
// keeping the "OnInit, then every step in order" discipline in one place.
func (s *Scheme) LabelRunContext(ctx context.Context, r *run.Run) (*RunLabeler, error) {
	l := s.NewRunLabeler()
	if err := l.OnInit(r.Spec); err != nil {
		return nil, err
	}
	for i := range r.Steps {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: run labeling canceled at step %d of %d: %w (%v)", i, len(r.Steps), faults.ErrCanceled, err)
			}
		}
		if err := l.OnStep(&r.Steps[i]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

var _ run.Observer = (*RunLabeler)(nil)
