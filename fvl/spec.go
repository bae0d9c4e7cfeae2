package fvl

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/workflow"
)

// Spec is a validated fine-grained workflow specification G^λ: a workflow
// grammar together with a dependency assignment for its atomic modules
// (Definition 7 of the paper). Specs are immutable once built; runs, views,
// labelers and services are all created from one.
type Spec struct {
	spec *workflow.Specification
}

// Start returns the name of the start module.
func (s *Spec) Start() string { return s.spec.Grammar.Start }

// Modules returns every module name in sorted order.
func (s *Spec) Modules() []string {
	out := make([]string, 0, len(s.spec.Grammar.Modules))
	for name := range s.spec.Grammar.Modules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Composites returns the composite module names in sorted order.
func (s *Spec) Composites() []string { return s.spec.Grammar.Composites() }

// Atomics returns the atomic module names in sorted order.
func (s *Spec) Atomics() []string { return s.spec.Grammar.Atomics() }

// ModuleArity returns the input and output port counts of a module.
func (s *Spec) ModuleArity(name string) (in, out int, ok bool) {
	m, ok := s.spec.Grammar.Module(name)
	return m.In, m.Out, ok
}

// ProductionCount returns the number of productions of the grammar.
func (s *Spec) ProductionCount() int { return len(s.spec.Grammar.Productions) }

// IsCoarseGrained reports whether the specification is coarse-grained in the
// sense of Definition 8: black-box atomic modules and single-source,
// single-sink production bodies.
func (s *Spec) IsCoarseGrained() bool { return s.spec.IsCoarseGrained() }

// WriteJSON writes the specification as the library's JSON document, the
// interchange format read back by ReadSpec.
func (s *Spec) WriteJSON(w io.Writer) error { return workflow.WriteSpecification(w, s.spec) }

// ReadSpec parses and validates a specification from its JSON document.
func ReadSpec(r io.Reader) (*Spec, error) {
	spec, err := workflow.ReadSpecification(r)
	if err != nil {
		return nil, err
	}
	return &Spec{spec: spec}, nil
}

// ReadSpecFile reads a specification from a JSON file.
func ReadSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := ReadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("fvl: reading %s: %w", path, err)
	}
	return spec, nil
}

// SpecBuilder assembles a specification fluently. Errors are accumulated —
// every method keeps the builder usable after a mistake — and reported
// together by Build, so construction sites stay free of error plumbing and
// nothing ever panics.
type SpecBuilder struct {
	b *workflow.Builder
}

// NewSpec returns an empty specification builder.
func NewSpec() *SpecBuilder {
	return &SpecBuilder{b: workflow.NewBuilder()}
}

// Module declares a module with the given input and output port counts.
func (sb *SpecBuilder) Module(name string, in, out int) *SpecBuilder {
	sb.b.Module(name, in, out)
	return sb
}

// Start names the start module.
func (sb *SpecBuilder) Start(name string) *SpecBuilder {
	sb.b.Start(name)
	return sb
}

// Deps declares the fine-grained dependencies of an atomic module as
// explicit (input port, output port) pairs, 0-based.
func (sb *SpecBuilder) Deps(module string, pairs ...[2]int) *SpecBuilder {
	sb.b.Deps(module, pairs...)
	return sb
}

// BlackBox gives the listed atomic modules complete (black-box)
// dependencies: every output depends on every input.
func (sb *SpecBuilder) BlackBox(modules ...string) *SpecBuilder {
	sb.b.BlackBox(modules...)
	return sb
}

// Production adds a production lhs -> flow. Errors the flow accumulated are
// adopted by the builder.
func (sb *SpecBuilder) Production(lhs string, f *Flow) *SpecBuilder {
	sb.b.Production(lhs, f.wb)
	return sb
}

// Build validates everything declared so far and returns the specification,
// or the first accumulated error.
func (sb *SpecBuilder) Build() (*Spec, error) {
	spec, err := sb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Spec{spec: spec}, nil
}

// Flow assembles the right-hand side of a production: a simple workflow of
// module occurrences connected by data edges. Like SpecBuilder, it
// accumulates errors instead of panicking; they surface when the
// specification is built.
type Flow struct {
	wb *workflow.WorkflowBuilder
}

// NewFlow returns an empty flow.
func NewFlow() *Flow {
	return &Flow{wb: workflow.NewWorkflow()}
}

// Node adds an occurrence of the named module. The optional label names the
// occurrence for Edge calls; without it the module name is used (convenient
// when a module occurs once). Reusing a label (or adding an unlabeled module
// twice) makes the label ambiguous: referencing it in Edge is then an error,
// so an edge can never silently attach to the wrong occurrence.
func (f *Flow) Node(module string, label ...string) *Flow {
	f.wb.Node(module, label...)
	return f
}

// Edge connects output port fromPort of the occurrence labeled from to input
// port toPort of the occurrence labeled to. Unknown and ambiguous occurrence
// labels are recorded as errors, not panics.
func (f *Flow) Edge(from string, fromPort int, to string, toPort int) *Flow {
	f.wb.Edge(from, fromPort, to, toPort)
	return f
}
