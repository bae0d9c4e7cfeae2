// Package view implements workflow views (Definition 9 of the paper): a view
// U = (∆′, λ′) over a specification G^λ restricts the expandable composite
// modules to the subset ∆′ and supplies a (possibly grey-box) dependency
// assignment λ′ for every module that is atomic under the view. Views are
// defined over the specification and projected onto runs by the run package.
package view

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/boolmat"
	"repro/internal/safety"
	"repro/internal/workflow"
)

// View is a workflow view U = (∆′, λ′) over a specification.
type View struct {
	// Name is an optional human-readable identifier used in reports.
	Name string
	// Spec is the underlying full specification the view is defined over.
	Spec *workflow.Specification
	// Include is ∆′: the set of composite modules whose productions remain
	// expandable in the view.
	Include map[string]bool
	// Deps is λ′: the dependency assignment for the modules that are atomic
	// under the view (true atomic modules and excluded composite modules).
	Deps workflow.DependencyAssignment

	// The safety analysis runs once, on first use, and may be first used
	// by several goroutines labeling the same view at once.
	analysis sync.Once
	full     workflow.DependencyAssignment
	closures map[int]*safety.Closure
	safeErr  error
}

// Default returns the default view (∆, λ) over the specification: every
// composite module stays expandable and the original fine-grained
// dependencies are used (Definition 9).
func Default(spec *workflow.Specification) *View {
	include := map[string]bool{}
	for _, m := range spec.Grammar.Composites() {
		include[m] = true
	}
	return &View{
		Name:    "default",
		Spec:    spec,
		Include: include,
		Deps:    spec.Deps.Clone(),
	}
}

// New builds a view from the set ∆′ of expandable composite modules and the
// dependency assignment λ′, and validates it: ∆′ must be a subset of the
// composite modules, the view must be proper (every module of ∆′ derivable
// using only productions of ∆′ modules), and λ′ must cover every view-atomic
// module reachable in the view with a well-formed matrix.
func New(name string, spec *workflow.Specification, include []string, deps workflow.DependencyAssignment) (*View, error) {
	v := &View{Name: name, Spec: spec, Include: map[string]bool{}, Deps: deps.Clone()}
	for _, m := range include {
		if !spec.Grammar.IsComposite(m) {
			return nil, fmt.Errorf("view %q: module %q is not a composite module of the specification", name, m)
		}
		v.Include[m] = true
	}
	if err := v.CheckProper(); err != nil {
		return nil, err
	}
	if err := v.validateDeps(); err != nil {
		return nil, err
	}
	return v, nil
}

// IsExpandable reports whether the module belongs to ∆′.
func (v *View) IsExpandable(module string) bool { return v.Include[module] }

// IncludesProduction reports whether the 1-based production index belongs to
// the restricted grammar G_∆′ (its left-hand side is in ∆′).
func (v *View) IncludesProduction(k int) bool {
	if k < 1 || k > len(v.Spec.Grammar.Productions) {
		return false
	}
	return v.Include[v.Spec.Grammar.Productions[k-1].LHS]
}

// DepsFor returns the view's dependency matrix for a view-atomic module.
func (v *View) DepsFor(module string) (*boolmat.Matrix, bool) {
	m, ok := v.Deps[module]
	return m, ok
}

// ExpandableModules returns ∆′ in sorted order.
func (v *View) ExpandableModules() []string {
	out := make([]string, 0, len(v.Include))
	for m := range v.Include {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ReachableModules returns the set of modules derivable from the start module
// using only the productions of the restricted grammar G_∆′ (the start module
// is always included).
func (v *View) ReachableModules() map[string]bool {
	g := v.Spec.Grammar
	reach := map[string]bool{g.Start: true}
	changed := true
	for changed {
		changed = false
		for k, p := range g.Productions {
			if !v.IncludesProduction(k+1) || !reach[p.LHS] {
				continue
			}
			for _, node := range p.RHS.Nodes {
				if !reach[node] {
					reach[node] = true
					changed = true
				}
			}
		}
	}
	return reach
}

// ViewAtomicModules returns, in sorted order, the reachable modules that are
// atomic under the view (true atomic modules plus excluded composites); these
// are exactly the modules λ′ must cover.
func (v *View) ViewAtomicModules() []string {
	reach := v.ReachableModules()
	var out []string
	for m := range reach {
		if !v.Include[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// CheckProper verifies that the view is proper: every module of ∆′ is
// derivable in the restricted grammar G_∆′ (Section 2.2).
func (v *View) CheckProper() error {
	reach := v.ReachableModules()
	for m := range v.Include {
		if !reach[m] {
			return fmt.Errorf("view %q: composite module %q is underivable in the restricted grammar", v.Name, m)
		}
	}
	return nil
}

func (v *View) validateDeps() error {
	var mods []workflow.Module
	for _, name := range v.ViewAtomicModules() {
		mods = append(mods, v.Spec.Grammar.Modules[name])
	}
	return v.Deps.ValidateFor(mods)
}

// analyze runs the safety analysis for the view once and caches the outcome.
func (v *View) analyze() {
	v.analysis.Do(func() {
		res, err := safety.FullAssignment(v.Spec.Grammar, v.Deps, safety.Options{Include: v.IncludesProduction})
		if err != nil {
			v.safeErr = err
			return
		}
		v.full = res.Full
		v.closures = res.Closures
	})
}

// IsSafe reports whether the view is safe (Definition 13 applied to the view
// specification G_U).
func (v *View) IsSafe() bool {
	v.analyze()
	return v.safeErr == nil
}

// SafetyError returns the error produced by the safety analysis, or nil.
func (v *View) SafetyError() error {
	v.analyze()
	return v.safeErr
}

// FullAssignment returns the full dependency assignment λ*′ of the view
// (Lemma 1), covering every reachable module. It fails when the view is
// unsafe.
func (v *View) FullAssignment() (workflow.DependencyAssignment, error) {
	v.analyze()
	if v.safeErr != nil {
		return nil, v.safeErr
	}
	return v.full, nil
}

// Closures returns the per-production port closures computed under λ*′,
// keyed by 1-based production index (only included, derivable productions
// appear). It fails when the view is unsafe.
func (v *View) Closures() (map[int]*safety.Closure, error) {
	v.analyze()
	if v.safeErr != nil {
		return nil, v.safeErr
	}
	return v.closures, nil
}

// StartDeps returns λ*′(S): the induced dependency matrix of the start
// module under the view.
func (v *View) StartDeps() (*boolmat.Matrix, error) {
	full, err := v.FullAssignment()
	if err != nil {
		return nil, err
	}
	m, ok := full[v.Spec.Grammar.Start]
	if !ok {
		// The start module is atomic under the view (∆′ does not contain it);
		// its dependencies come directly from λ′.
		m, ok = v.Deps[v.Spec.Grammar.Start]
		if !ok {
			return nil, fmt.Errorf("view %q: no dependencies defined for start module %q", v.Name, v.Spec.Grammar.Start)
		}
	}
	return m, nil
}

// IsWhiteBox reports whether the view has white-box dependencies (Remark 1):
// for every view-atomic module, λ′ defines exactly the dependencies induced
// by the original assignment λ (its λ* under the default view). Views that
// are not white-box are grey-box.
func (v *View) IsWhiteBox() (bool, error) {
	def := Default(v.Spec)
	defFull, err := def.FullAssignment()
	if err != nil {
		return false, fmt.Errorf("view %q: default view is unsafe: %w", v.Name, err)
	}
	for _, m := range v.ViewAtomicModules() {
		mine, ok := v.Deps[m]
		if !ok {
			return false, fmt.Errorf("view %q: missing dependencies for %q", v.Name, m)
		}
		truth, ok := defFull[m]
		if !ok {
			// The module is not derivable under the default view (cannot
			// happen for proper specifications) — treat as mismatch.
			return false, nil
		}
		if !mine.Equal(truth) {
			return false, nil
		}
	}
	return true, nil
}

// IsGreyBox reports whether the view introduces dependencies different from
// the true ones.
func (v *View) IsGreyBox() (bool, error) {
	white, err := v.IsWhiteBox()
	if err != nil {
		return false, err
	}
	return !white, nil
}
