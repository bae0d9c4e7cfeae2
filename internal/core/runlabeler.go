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
// from these paths.
type RunLabeler struct {
	scheme *Scheme

	// instPath[id] is the edge-label path of the tree node for instance id.
	instPath map[int][]EdgeLabel
	// labels[itemID] is the assigned data label.
	labels map[int]*DataLabel
}

// NewRunLabeler returns a labeler for runs of the scheme's specification.
// Attach it to a run with run.Run.AddObserver.
func (s *Scheme) NewRunLabeler() *RunLabeler {
	return &RunLabeler{
		scheme:   s,
		instPath: map[int][]EdgeLabel{},
		labels:   map[int]*DataLabel{},
	}
}

// Label returns the label assigned to the data item with the given ID.
func (l *RunLabeler) Label(itemID int) (*DataLabel, bool) {
	d, ok := l.labels[itemID]
	return d, ok
}

// Labels returns a snapshot of all assigned labels keyed by data item ID.
func (l *RunLabeler) Labels() map[int]*DataLabel {
	out := make(map[int]*DataLabel, len(l.labels))
	for k, v := range l.labels {
		out[k] = v.Clone()
	}
	return out
}

// Count returns the number of labeled data items.
func (l *RunLabeler) Count() int { return len(l.labels) }

// OnInit labels the initial inputs and final outputs of the run (the ports of
// the start module). If the start module is recursive, the root of the
// compressed parse tree is a recursive node and the start instance is its
// first child.
func (l *RunLabeler) OnInit(r *run.Run) error {
	if r.Spec != l.scheme.Spec {
		return fmt.Errorf("core: run was derived from a different specification: %w", faults.ErrForeignLabel)
	}
	start := l.scheme.Spec.Grammar.Start
	var path []EdgeLabel
	if s, t, ok := l.scheme.cycleOf(start); ok {
		path = []EdgeLabel{RecursiveEdge(s, t, 1)}
	}
	l.instPath[0] = path

	root, _ := r.Instance(0)
	for _, item := range r.Items {
		if item.Step != 0 {
			continue
		}
		if item.Src == -1 {
			port, _ := r.Port(item.Dst)
			l.labels[item.ID] = &DataLabel{In: l.portLabel(root.ID, port)}
		} else {
			port, _ := r.Port(item.Src)
			l.labels[item.ID] = &DataLabel{Out: l.portLabel(root.ID, port)}
		}
	}
	return nil
}

func (l *RunLabeler) portLabel(ownerInstance int, port run.PortInstance) *PortLabel {
	path := l.instPath[ownerInstance]
	return &PortLabel{Path: append([]EdgeLabel(nil), path...), Port: port.Index}
}

// OnStep places the instances created by the step into the compressed parse
// tree (cases 1, 2a and 2b of the dynamic labeling algorithm) and labels the
// data items the step introduced.
func (l *RunLabeler) OnStep(r *run.Run, step *run.Step) error {
	parent, ok := r.Instance(step.Instance)
	if !ok {
		return fmt.Errorf("core: step refers to unknown instance %d", step.Instance)
	}
	parentPath, ok := l.instPath[parent.ID]
	if !ok {
		return fmt.Errorf("core: instance %d was never placed in the parse tree", parent.ID)
	}
	k := step.Prod
	parentRecursive := l.scheme.isRecursive(parent.Module)

	for _, childID := range step.NewInstances {
		child, _ := r.Instance(childID)
		i := child.NodeIndex + 1 // 1-based position within the production RHS
		childRecursive := l.scheme.isRecursive(child.Module)
		var path []EdgeLabel
		switch {
		case !childRecursive:
			// Case 1: ordinary child of the parent's node.
			path = appendEdge(parentPath, NonRecursiveEdge(k, i))
		case parentRecursive && l.scheme.sameCycle(parent.Module, child.Module):
			// Case 2a: the child continues the parent's linear recursion; it
			// becomes the next sibling of the parent under the enclosing
			// recursive node.
			if len(parentPath) == 0 || !parentPath[len(parentPath)-1].Recursive {
				return fmt.Errorf("core: recursive instance %d has no enclosing recursive node", parent.ID)
			}
			last := parentPath[len(parentPath)-1]
			path = appendEdge(parentPath[:len(parentPath)-1], RecursiveEdge(last.S, last.T, last.I+1))
		default:
			// Case 2b: a new recursion starts below the parent: a fresh
			// recursive node is inserted with the child as its first element.
			s, t, ok := l.scheme.cycleOf(child.Module)
			if !ok {
				return fmt.Errorf("core: module %q is recursive but has no cycle", child.Module)
			}
			path = appendEdge(appendEdge(parentPath, NonRecursiveEdge(k, i)), RecursiveEdge(s, t, 1))
		}
		l.instPath[childID] = path
	}

	for _, itemID := range step.NewItems {
		item, _ := r.Item(itemID)
		src, _ := r.Port(item.Src)
		dst, _ := r.Port(item.Dst)
		l.labels[itemID] = &DataLabel{
			Out: l.portLabel(src.Owner, src),
			In:  l.portLabel(dst.Owner, dst),
		}
	}
	return nil
}

func appendEdge(path []EdgeLabel, e EdgeLabel) []EdgeLabel {
	out := make([]EdgeLabel, 0, len(path)+1)
	out = append(out, path...)
	return append(out, e)
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
	if err := l.OnInit(r); err != nil {
		return nil, err
	}
	for i := range r.Steps {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: run labeling canceled at step %d of %d: %w (%v)", i, len(r.Steps), faults.ErrCanceled, err)
			}
		}
		if err := l.OnStep(r, &r.Steps[i]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

var _ run.Observer = (*RunLabeler)(nil)

// portKindOf is a small helper used in tests to sanity-check port labels.
func portKindOf(p run.PortInstance) workflow.PortKind { return p.Kind }
