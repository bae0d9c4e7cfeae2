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

// Production adds a production LHS -> RHS. The right-hand side is normalized
// into topological order.
func (b *Builder) Production(lhs string, rhs *SimpleWorkflow) *Builder {
	if _, ok := b.grammar.Modules[lhs]; !ok {
		b.errs = append(b.errs, fmt.Errorf("production for undeclared module %q", lhs))
		return b
	}
	norm, err := rhs.Normalize()
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

// WorkflowBuilder assembles a SimpleWorkflow node by node.
type WorkflowBuilder struct {
	wf    SimpleWorkflow
	names map[string]int // occurrence label -> node index
}

// NewWorkflow returns an empty workflow builder.
func NewWorkflow() *WorkflowBuilder {
	return &WorkflowBuilder{names: map[string]int{}}
}

// Node adds an occurrence of the named module and returns its node index.
// The optional label can be used to reference the occurrence in Edge calls;
// if omitted, the module name is used as the label (convenient when a module
// occurs only once).
func (wb *WorkflowBuilder) Node(module string, label ...string) int {
	idx := len(wb.wf.Nodes)
	wb.wf.Nodes = append(wb.wf.Nodes, module)
	key := module
	if len(label) > 0 {
		key = label[0]
	}
	wb.names[key] = idx
	return idx
}

// Edge adds a data edge from output port fromPort of the occurrence labelled
// from to input port toPort of the occurrence labelled to. Unknown labels
// panic: the builder is a literal-construction DSL, so a bad label is a
// programming error at the call site, not runtime input.
func (wb *WorkflowBuilder) Edge(from string, fromPort int, to string, toPort int) *WorkflowBuilder {
	fi, ok := wb.names[from]
	if !ok {
		panic(fmt.Sprintf("workflow builder: unknown occurrence %q", from))
	}
	ti, ok := wb.names[to]
	if !ok {
		panic(fmt.Sprintf("workflow builder: unknown occurrence %q", to))
	}
	wb.wf.Edges = append(wb.wf.Edges, DataEdge{FromNode: fi, FromPort: fromPort, ToNode: ti, ToPort: toPort})
	return wb
}

// Workflow returns the assembled simple workflow.
func (wb *WorkflowBuilder) Workflow() *SimpleWorkflow {
	return wb.wf.Clone()
}
