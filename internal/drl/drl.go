// Package drl implements the baseline the paper compares against (Section 6):
// a per-view dynamic labeling scheme in the spirit of "Labeling Recursive
// Workflow Executions On-the-Fly" (Bao, Davidson, Milo, SIGMOD 2011).
//
// DRL differs from the view-adaptive FVL scheme of package core in one
// architectural respect that drives the multi-view experiments (Figures
// 21-23): its labels are computed for one particular view. The view of a run
// is materialized (the expansion is cut off at modules the view hides) and
// every visible data item receives a label that is only meaningful together
// with that view's static index. Consequently, when q views are defined over
// the same workflow, every data item carries q labels and is labeled q times,
// whereas FVL labels it once.
//
// DRL targets the coarse-grained provenance model: the perceived dependencies
// of the view's atomic modules are black boxes (every output depends on every
// input), which is how the original system modeled provenance. The
// implementation reuses the compressed-parse-tree machinery of package core,
// applied to the restricted grammar of the view, and decodes with the
// matrix-free short cuts that boolean (black-box) reachability allows; this
// reproduces DRL's published characteristics — compact (logarithmic) labels
// for linear-recursive grammars, constant query time, per-view index —
// without claiming to be a line-by-line port of the original encoding.
package drl

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workflow"
)

// Labeler labels the projection of runs onto one view, online. It implements
// run.Observer, so it can be attached to a run before or during derivation
// and assigns a label to every visible data item as soon as it is produced.
type Labeler struct {
	// View is the view the labels are valid for.
	View *view.View
	// Restricted is the view treated as a specification in its own right: the
	// grammar keeps only the productions of expandable composite modules and
	// the dependency assignment is the view's λ′.
	Restricted *workflow.Specification

	scheme    *core.Scheme
	viewLabel *core.ViewLabel

	projected *run.Deriver
	labeler   *core.RunLabeler

	instMap map[int]int // original instance ID -> projected instance ID
	itemMap map[int]int // original data item ID -> projected data item ID
	prodMap map[int]int // original production index -> restricted production index
}

// New builds the per-view labeling machinery for a view: the restricted
// specification, its labeling scheme, and the static per-view index used at
// query time. It fails when the restricted grammar is not proper, not
// strictly linear-recursive, or unsafe under the view's dependencies.
func New(v *view.View) (*Labeler, error) {
	restricted, prodMap, err := restrictedSpecification(v)
	if err != nil {
		return nil, err
	}
	scheme, err := core.NewScheme(restricted)
	if err != nil {
		return nil, fmt.Errorf("drl: view %q: %w", v.Name, err)
	}
	vl, err := scheme.LabelView(view.Default(restricted), core.VariantQueryEfficient)
	if err != nil {
		return nil, fmt.Errorf("drl: view %q: %w", v.Name, err)
	}
	return &Labeler{
		View:       v,
		Restricted: restricted,
		scheme:     scheme,
		viewLabel:  vl.WithMatrixFree(),
		prodMap:    prodMap,
	}, nil
}

// restrictedSpecification materializes the view as a standalone specification
// G_U = (G_∆′)^λ′ and returns the mapping from original to restricted
// production indices.
func restrictedSpecification(v *view.View) (*workflow.Specification, map[int]int, error) {
	g := v.Spec.Grammar
	restricted := &workflow.Grammar{
		Modules: map[string]workflow.Module{},
		Start:   g.Start,
	}
	// Only the modules reachable in the view belong to the restricted
	// grammar; modules hidden behind excluded composites (and therefore
	// lacking a λ′ entry) are dropped.
	for name := range v.ReachableModules() {
		restricted.Modules[name] = g.Modules[name]
	}
	prodMap := map[int]int{}
	for k := 1; k <= len(g.Productions); k++ {
		if !v.IncludesProduction(k) {
			continue
		}
		p := g.Productions[k-1]
		restricted.Productions = append(restricted.Productions, workflow.Production{LHS: p.LHS, RHS: p.RHS.Clone()})
		prodMap[k] = len(restricted.Productions)
	}
	deps := workflow.DependencyAssignment{}
	for _, name := range v.ViewAtomicModules() {
		m, ok := v.Deps[name]
		if !ok {
			return nil, nil, fmt.Errorf("drl: view %q defines no dependencies for module %q", v.Name, name)
		}
		deps[name] = m.Clone()
	}
	spec, err := workflow.NewSpecification(restricted, deps)
	if err != nil {
		return nil, nil, fmt.Errorf("drl: view %q does not induce a proper specification: %w", v.Name, err)
	}
	return spec, prodMap, nil
}

// OnInit starts the projected derivation (the view of the original run) and
// labels its initial inputs and final outputs.
func (l *Labeler) OnInit(spec *workflow.Specification) error {
	return l.init(spec, 1, 0)
}

// init is OnInit with the id maps sized for a run of the given numbers of
// instances and items.
func (l *Labeler) init(spec *workflow.Specification, instances, items int) error {
	if spec != l.View.Spec {
		return fmt.Errorf("drl: run was derived from a different specification than view %q: %w", l.View.Name, faults.ErrForeignLabel)
	}
	l.projected = l.scheme.NewDeriver()
	l.labeler = l.scheme.NewRunLabeler()
	if err := l.labeler.OnInit(l.Restricted); err != nil {
		return err
	}
	l.instMap = make(map[int]int, instances)
	l.itemMap = make(map[int]int, items)
	l.instMap[0] = 0
	// The initial items of the original run and of the projected run are
	// numbered alike (inputs of the start module, then outputs).
	start := spec.Grammar.Modules[spec.Grammar.Start]
	if l.labeler.Count() != start.In+start.Out {
		return fmt.Errorf("drl: start module arity mismatch between run and view %q", l.View.Name)
	}
	for id := 1; id <= l.labeler.Count(); id++ {
		l.itemMap[id] = id
	}
	return nil
}

// OnStep mirrors visible derivation steps onto the projected derivation and
// labels what they create. Steps that expand a module the view hides (or
// descendants of such a module) are ignored: their data items stay
// unlabeled, exactly as the view hides them.
func (l *Labeler) OnStep(s *run.Step) error {
	projInst, visible := l.instMap[s.Instance]
	if !visible || !l.View.IsExpandable(s.LHS) {
		return nil
	}
	k, ok := l.prodMap[s.Prod]
	if !ok {
		return fmt.Errorf("drl: step %d applies production %d which view %q excludes", s.Index, s.Prod, l.View.Name)
	}
	step, err := l.projected.Apply(projInst, k)
	if err != nil {
		return fmt.Errorf("drl: mirroring step %d onto view %q: %w", s.Index, l.View.Name, err)
	}
	if len(step.Nodes) != len(s.Nodes) || len(step.Edges) != len(s.Edges) {
		return fmt.Errorf("drl: projected step %d diverged from the original derivation", s.Index)
	}
	if err := l.labeler.OnStep(&step); err != nil {
		return err
	}
	for i := range s.Nodes {
		l.instMap[s.FirstInstance+i] = step.FirstInstance + i
	}
	for j := range s.Edges {
		l.itemMap[s.FirstItem+j] = step.FirstItem + j
	}
	return nil
}

var _ run.Observer = (*Labeler)(nil)

// LabelRun is a convenience helper that labels an already-derived run by
// replaying its derivation.
func LabelRun(v *view.View, r *run.Run) (*Labeler, error) {
	l, err := New(v)
	if err != nil {
		return nil, err
	}
	// Relabeling a whole run per view is DRL's multi-view hot path (Figures
	// 21-22): size the id maps for the run up front so the 10k-item runs of
	// the experiments do not pay for incremental map growth.
	if err := l.init(r.Spec, len(r.Instances), len(r.Items)); err != nil {
		return nil, err
	}
	for i := range r.Steps {
		if err := l.OnStep(&r.Steps[i]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// LabelRunViews labels one run for many views concurrently, one worker-pool
// task per view; workers <= 0 means GOMAXPROCS (the same normalization as
// engine.EffectiveWorkers). This is DRL's multi-view hot path (Figures 21-22)
// parallelized: each view's labeler mirrors the shared run — which is only
// read — onto its own projected run, so the per-view labelings are
// independent. The returned slice is index-aligned with views. Any failure
// aborts the whole batch: one of the errors is returned (the lowest-indexed
// one recorded) and in-flight work stops claiming new views.
func LabelRunViews(views []*view.View, r *run.Run, workers int) ([]*Labeler, error) {
	return LabelRunViewsContext(context.Background(), views, r, workers)
}

// LabelRunViewsContext is LabelRunViews with cancellation: every worker
// re-checks the context before claiming its next view (engine.ForEach's
// claim loop), so a canceled context aborts the batch between views —
// in-flight view labelings finish, the remaining views are never started —
// with an error wrapping faults.ErrCanceled.
func LabelRunViewsContext(ctx context.Context, views []*view.View, r *run.Run, workers int) ([]*Labeler, error) {
	labelers := make([]*Labeler, len(views))
	err := engine.ForEach(ctx, workers, len(views), func(i int) error {
		l, err := LabelRun(views[i], r)
		labelers[i] = l
		return err
	})
	if err != nil {
		return nil, err
	}
	return labelers, nil
}

// Visible reports whether the original data item received a label, i.e. is
// visible in the view of the run.
func (l *Labeler) Visible(originalItemID int) bool {
	_, ok := l.itemMap[originalItemID]
	return ok
}

// Label returns the per-view label of an original data item, or false when
// the item is hidden by the view.
func (l *Labeler) Label(originalItemID int) (core.DataLabel, bool) {
	projID, ok := l.itemMap[originalItemID]
	if !ok {
		return core.DataLabel{}, false
	}
	return l.labeler.Label(projID)
}

// Count returns the number of labeled (visible) data items.
func (l *Labeler) Count() int { return len(l.itemMap) }

// DependsOn answers a reachability query from two per-view labels.
func (l *Labeler) DependsOn(d1, d2 core.DataLabel) (bool, error) {
	return l.viewLabel.DependsOn(d1, d2)
}

// DependsOnItems answers a reachability query for two original data items.
func (l *Labeler) DependsOnItems(d1, d2 int) (bool, error) {
	l1, ok := l.Label(d1)
	if !ok {
		return false, fmt.Errorf("drl: data item %d is not visible in view %q: %w", d1, l.View.Name, faults.ErrHiddenItem)
	}
	l2, ok := l.Label(d2)
	if !ok {
		return false, fmt.Errorf("drl: data item %d is not visible in view %q: %w", d2, l.View.Name, faults.ErrHiddenItem)
	}
	return l.DependsOn(l1, l2)
}

// SizeBits returns the encoded length of a per-view label in bits.
func (l *Labeler) SizeBits(d core.DataLabel) int {
	return l.scheme.Codec().SizeBits(d)
}

// IndexSizeBits returns the size of the per-view static index in bits; it
// plays the role of the view label in the space accounting of Section 6.
func (l *Labeler) IndexSizeBits() int { return l.viewLabel.SizeBits() }
