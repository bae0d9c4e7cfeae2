package query

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
)

// Catalog is what the planner compiles against: the label serving each view
// name. A view has exactly one label, so the planner has no variant to
// choose; the access paths record which one serves each leaf.
type Catalog interface {
	// Label returns the label serving the view, or false when the view is
	// not served.
	Label(view string) (*core.ViewLabel, bool)
}

// AccessPath records one physical operator choice of a compiled plan: which
// scan runs against which view under which serving variant. The planner
// fallback tests assert on these.
type AccessPath struct {
	Op      string // "deps-row", "revdeps-row", "between-scan", "visible-row", "explain-union"
	View    string
	Variant core.Variant
}

func (ap AccessPath) String() string {
	return fmt.Sprintf("%s on %q via %s", ap.Op, ap.View, ap.Variant)
}

// Plan is a compiled expression: every leaf is bound to a concrete label
// (view + variant) and a physical bitset-row operator. Plans are immutable
// and reusable; Execute runs one against a query session and item index.
type Plan struct {
	expr  *Expr
	kind  Kind
	root  *planNode
	paths []AccessPath
}

type planNode struct {
	op    Op
	item  int
	items []int
	side  int
	label *core.ViewLabel // leaf reachability label (primary view)
	visA  *core.ViewLabel // OpBetween endpoint visibility
	visB  *core.ViewLabel
	kids  [2]*planNode
}

// Compile binds an expression to the catalog: the reachability of every leaf
// is answered by the primary view's label, and Between endpoints resolve
// their own views' labels for visibility. Invalid expressions wrap
// faults.ErrInvalidQuery; unresolvable views wrap faults.ErrUnknownView.
func Compile(cat Catalog, primaryView string, expr *Expr) (*Plan, error) {
	kind, err := expr.Kind()
	if err != nil {
		return nil, err
	}
	p := &Plan{expr: expr, kind: kind}
	root, err := p.compile(cat, primaryView, expr)
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

func (p *Plan) compile(cat Catalog, primaryView string, e *Expr) (*planNode, error) {
	n := &planNode{op: e.op, item: e.item, items: e.items, side: e.side}
	switch e.op {
	case OpDeps, OpRevDeps, OpExplain:
		vl, err := labelOf(cat, primaryView)
		if err != nil {
			return nil, err
		}
		n.label = vl
		op := map[Op]string{OpDeps: "deps-row", OpRevDeps: "revdeps-row", OpExplain: "explain-union"}[e.op]
		p.paths = append(p.paths, AccessPath{Op: op, View: primaryView, Variant: vl.Variant()})
	case OpBetween:
		vl, err := labelOf(cat, primaryView)
		if err != nil {
			return nil, err
		}
		va, err := labelOf(cat, e.viewA)
		if err != nil {
			return nil, err
		}
		vb, err := labelOf(cat, e.viewB)
		if err != nil {
			return nil, err
		}
		n.label, n.visA, n.visB = vl, va, vb
		p.paths = append(p.paths,
			AccessPath{Op: "between-scan", View: primaryView, Variant: vl.Variant()},
			AccessPath{Op: "visible-row", View: e.viewA, Variant: va.Variant()},
			AccessPath{Op: "visible-row", View: e.viewB, Variant: vb.Variant()},
		)
	case OpUnion, OpIntersect:
		for i, kid := range e.args {
			kn, err := p.compile(cat, primaryView, kid)
			if err != nil {
				return nil, err
			}
			n.kids[i] = kn
		}
	case OpProject:
		kn, err := p.compile(cat, primaryView, e.args[0])
		if err != nil {
			return nil, err
		}
		n.kids[0] = kn
	}
	return n, nil
}

// labelOf resolves the label serving the view.
func labelOf(cat Catalog, view string) (*core.ViewLabel, error) {
	vl, ok := cat.Label(view)
	if !ok || vl == nil {
		return nil, fmt.Errorf("query: no label served for view %q: %w", view, faults.ErrUnknownView)
	}
	return vl, nil
}

// Expr returns the expression the plan was compiled from.
func (p *Plan) Expr() *Expr { return p.expr }

// Kind returns the plan's result kind.
func (p *Plan) Kind() Kind { return p.kind }

// AccessPaths returns the physical operator choices of the plan, in the
// order the leaves appear in the expression text.
func (p *Plan) AccessPaths() []AccessPath { return append([]AccessPath(nil), p.paths...) }

// String renders the plan for humans: the canonical expression followed by
// one line per access path.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s -> %s", p.expr.String(), p.kind)
	for _, ap := range p.paths {
		fmt.Fprintf(&b, "\n  %s", ap)
	}
	return b.String()
}
