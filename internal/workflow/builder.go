package workflow

import (
	"fmt"

	"repro/internal/boolmat"
)

// Builder provides a fluent API for constructing grammars and specifications
// in tests, examples and workload generators. All errors are accumulated and
// reported by Build, so call sites can stay free of error plumbing.
type Builder struct {
	grammar *Grammar
	deps    DependencyAssignment
	errs    []error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		grammar: &Grammar{Modules: map[string]Module{}},
		deps:    DependencyAssignment{},
	}
}

// Module declares a module with the given port counts. Redeclaring a module
// with different counts is an error.
func (b *Builder) Module(name string, in, out int) *Builder {
	if existing, ok := b.grammar.Modules[name]; ok {
		if existing.In != in || existing.Out != out {
			b.errs = append(b.errs, fmt.Errorf("module %q redeclared with different arity", name))
		}
		return b
	}
	b.grammar.Modules[name] = Module{Name: name, In: in, Out: out}
	return b
}

// Start sets the start module.
func (b *Builder) Start(name string) *Builder {
	b.grammar.Start = name
	return b
}

// Deps sets the dependency matrix of an atomic module from explicit (in, out)
// pairs (0-based port indices).
func (b *Builder) Deps(module string, pairs ...[2]int) *Builder {
	m, ok := b.grammar.Modules[module]
	if !ok {
		b.errs = append(b.errs, fmt.Errorf("dependency assignment for undeclared module %q", module))
		return b
	}
	mat := boolmat.New(m.In, m.Out)
	for _, p := range pairs {
		if p[0] < 0 || p[0] >= m.In || p[1] < 0 || p[1] >= m.Out {
			b.errs = append(b.errs, fmt.Errorf("dependency (%d,%d) out of range for module %q", p[0], p[1], module))
			continue
		}
		mat.Set(p[0], p[1], true)
	}
	b.deps[module] = mat
	return b
}

// BlackBox gives the listed atomic modules complete (black-box) dependencies.
func (b *Builder) BlackBox(modules ...string) *Builder {
	for _, name := range modules {
		m, ok := b.grammar.Modules[name]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("black-box assignment for undeclared module %q", name))
			continue
		}
		b.deps[name] = CompleteDeps(m)
	}
	return b
}

// DepsMatrix sets the dependency matrix of a module directly.
func (b *Builder) DepsMatrix(module string, mat *boolmat.Matrix) *Builder {
	b.deps[module] = mat.Clone()
	return b
}

// Production adds a production LHS -> RHS. The right-hand side's own
// construction errors (see WorkflowBuilder.Edge) are adopted by the builder;
// otherwise the right-hand side is normalized into topological order.
func (b *Builder) Production(lhs string, rhs *WorkflowBuilder) *Builder {
	if _, ok := b.grammar.Modules[lhs]; !ok {
		b.errs = append(b.errs, fmt.Errorf("production for undeclared module %q", lhs))
		return b
	}
	if len(rhs.errs) > 0 {
		for _, err := range rhs.errs {
			b.errs = append(b.errs, fmt.Errorf("production %q: %w", lhs, err))
		}
		return b
	}
	norm, err := rhs.wf.Normalize()
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("production %q: %w", lhs, err))
		return b
	}
	b.grammar.Productions = append(b.grammar.Productions, Production{LHS: lhs, RHS: norm})
	return b
}

// Grammar returns the grammar built so far along with any accumulated errors.
// The grammar is validated.
func (b *Builder) Grammar() (*Grammar, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("workflow builder: %w", b.errs[0])
	}
	if err := b.grammar.Validate(); err != nil {
		return nil, err
	}
	return b.grammar, nil
}

// Build validates and returns the full specification.
func (b *Builder) Build() (*Specification, error) {
	g, err := b.Grammar()
	if err != nil {
		return nil, err
	}
	return NewSpecification(g, b.deps)
}

// MustBuild is Build that panics on error; intended for tests, examples and
// statically known workloads.
func (b *Builder) MustBuild() *Specification {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// WorkflowBuilder assembles a SimpleWorkflow node by node. Like Builder, it
// accumulates errors instead of panicking; Builder.Production adopts them,
// so they surface at Build.
type WorkflowBuilder struct {
	wf    SimpleWorkflow
	names map[string]int // occurrence label -> node index, -1 when ambiguous
	errs  []error
}

// NewWorkflow returns an empty workflow builder.
func NewWorkflow() *WorkflowBuilder {
	return &WorkflowBuilder{names: map[string]int{}}
}

// Node adds an occurrence of the named module. The optional label names the
// occurrence for Edge calls; without it the module name is used (convenient
// when a module occurs once). Reusing a label (or adding an unlabeled module
// twice) makes the label ambiguous: referencing it in Edge is then an error,
// so an edge can never silently attach to the wrong occurrence.
func (wb *WorkflowBuilder) Node(module string, label ...string) *WorkflowBuilder {
	key := module
	if len(label) > 0 {
		key = label[0]
	}
	if _, exists := wb.names[key]; exists {
		wb.names[key] = -1
	} else {
		wb.names[key] = len(wb.wf.Nodes)
	}
	wb.wf.Nodes = append(wb.wf.Nodes, module)
	return wb
}

// Edge adds a data edge from output port fromPort of the occurrence labelled
// from to input port toPort of the occurrence labelled to. Unknown and
// ambiguous occurrence labels are recorded as errors.
func (wb *WorkflowBuilder) Edge(from string, fromPort int, to string, toPort int) *WorkflowBuilder {
	fi, ok := wb.occurrence(from)
	if !ok {
		return wb
	}
	ti, ok := wb.occurrence(to)
	if !ok {
		return wb
	}
	wb.wf.Edges = append(wb.wf.Edges, DataEdge{FromNode: fi, FromPort: fromPort, ToNode: ti, ToPort: toPort})
	return wb
}

func (wb *WorkflowBuilder) occurrence(label string) (int, bool) {
	i, ok := wb.names[label]
	switch {
	case !ok:
		wb.errs = append(wb.errs, fmt.Errorf("unknown occurrence %q", label))
	case i < 0:
		wb.errs = append(wb.errs, fmt.Errorf("ambiguous occurrence %q (declared more than once; give each occurrence a distinct label)", label))
	}
	return i, ok && i >= 0
}
