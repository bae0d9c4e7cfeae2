package workflow

import (
	"fmt"
)

// Specification is a fine-grained workflow specification G^lambda
// (Definition 7): a workflow grammar together with a dependency assignment for
// its atomic modules.
type Specification struct {
	Grammar *Grammar
	Deps    DependencyAssignment // keyed by atomic module name
}

// NewSpecification builds and validates a specification.
func NewSpecification(g *Grammar, deps DependencyAssignment) (*Specification, error) {
	s := &Specification{Grammar: g, Deps: deps}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks that the grammar is well-formed and proper and that the
// dependency assignment covers exactly the atomic modules with matrices of
// the right dimensions obeying Definition 6.
func (s *Specification) Validate() error {
	if s.Grammar == nil {
		return fmt.Errorf("workflow: specification has nil grammar")
	}
	if err := s.Grammar.Validate(); err != nil {
		return err
	}
	if err := s.Grammar.CheckProper(); err != nil {
		return err
	}
	atomics := make([]Module, 0)
	for _, name := range s.Grammar.Atomics() {
		atomics = append(atomics, s.Grammar.Modules[name])
	}
	if err := s.Deps.ValidateFor(atomics); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the specification.
func (s *Specification) Clone() *Specification {
	return &Specification{Grammar: s.Grammar.Clone(), Deps: s.Deps.Clone()}
}

// Module implements ModuleLookup.
func (s *Specification) Module(name string) (Module, bool) {
	return s.Grammar.Module(name)
}

// IsCoarseGrained reports whether the specification is coarse-grained in the
// sense of Definition 8: (1) every atomic module has black-box dependencies
// (every output depends on every input) and (2) every production right-hand
// side has a single source node and a single sink node in its data-edge DAG.
func (s *Specification) IsCoarseGrained() bool {
	for _, name := range s.Grammar.Atomics() {
		m := s.Grammar.Modules[name]
		mat, ok := s.Deps[name]
		if !ok || !mat.Equal(CompleteDeps(m)) {
			return false
		}
	}
	for _, p := range s.Grammar.Productions {
		if !hasSingleSourceAndSink(p.RHS) {
			return false
		}
	}
	return true
}

func hasSingleSourceAndSink(w *SimpleWorkflow) bool {
	n := len(w.Nodes)
	if n == 1 {
		return true
	}
	hasIncoming := make([]bool, n)
	hasOutgoing := make([]bool, n)
	for _, e := range w.Edges {
		hasIncoming[e.ToNode] = true
		hasOutgoing[e.FromNode] = true
	}
	sources, sinks := 0, 0
	for i := 0; i < n; i++ {
		if !hasIncoming[i] {
			sources++
		}
		if !hasOutgoing[i] {
			sinks++
		}
	}
	return sources == 1 && sinks == 1
}
