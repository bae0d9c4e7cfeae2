package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/prodgraph"
	"repro/internal/run"
	"repro/internal/workflow"
)

// Scheme is the view-adaptive dynamic labeling scheme (φr, φv, π) for one
// strictly linear-recursive workflow specification. It holds the static
// preprocessing of Section 4.1: the production graph with its (k, i) edge
// numbering and the fixed enumeration of its vertex-disjoint cycles.
type Scheme struct {
	Spec   *workflow.Specification
	Graph  *prodgraph.Graph
	Cycles []prodgraph.Cycle

	// basic marks a scheme built by NewSchemeBasic: runs are labeled with the
	// basic parse tree (no recursive nodes), which works for every safe
	// specification but yields labels whose length grows with the nesting
	// depth of the run (Theorem 1) instead of logarithmically (Theorem 8).
	basic bool

	// growth is the placement case of every RHS node of every production,
	// as the edges it adds to its parent's path (pathGrowth): production k's
	// nodes are growth[growthAt[k-1]:growthAt[k]], in node order.
	growth   []uint8
	growthAt []int

	codec *Codec
	// templates compiles the specification's productions once for every
	// derivation the scheme labels (NewDeriver).
	templates *run.Templates
}

// NewScheme validates the specification, builds the production graph and
// fixes the cycle enumeration. It fails when the grammar is not strictly
// linear-recursive, because compact dynamic labeling is then impossible in
// general (Theorems 5 and 6); see NewSchemeBasic for the fallback that trades
// compactness for generality.
func NewScheme(spec *workflow.Specification) (*Scheme, error) { return newScheme(spec, false) }

// NewSchemeBasic builds the fallback scheme of Theorem 1: runs are labeled
// with basic parse trees, so the scheme applies to every safe specification
// (including grammars that are not strictly linear-recursive) at the price of
// data labels whose length is proportional to the nesting depth of the run.
// Views are still labeled and decoded exactly as in the compact scheme.
func NewSchemeBasic(spec *workflow.Specification) (*Scheme, error) { return newScheme(spec, true) }

func newScheme(spec *workflow.Specification, basic bool) (*Scheme, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &Scheme{Spec: spec, Graph: prodgraph.New(spec.Grammar), basic: basic, templates: run.NewTemplates(spec)}
	if !basic {
		if !s.Graph.IsStrictlyLinearRecursive() {
			return nil, fmt.Errorf("core: compact dynamic labeling is not possible (Theorem 6): %w", faults.ErrNotLinearRecursive)
		}
		var err error
		if s.Cycles, err = s.Graph.Cycles(); err != nil {
			return nil, err
		}
	}
	if err := checkWidths(spec, s.Cycles); err != nil {
		return nil, err
	}
	s.growthAt = make([]int, 1, len(spec.Grammar.Productions)+1)
	for _, p := range spec.Grammar.Productions {
		for _, module := range p.RHS.Nodes {
			s.growth = append(s.growth, uint8(s.pathGrowth(p.LHS, module)))
		}
		s.growthAt = append(s.growthAt, len(s.growth))
	}
	s.codec = NewCodec(s)
	return s, nil
}

// checkWidths refuses a specification whose edge labels would not fit an
// EdgeLabel. The cycles are vertex-disjoint, so each takes its edges from
// productions of its own and the production bound also bounds the cycles.
func checkWidths(spec *workflow.Specification, cycles []prodgraph.Cycle) error {
	g := spec.Grammar
	longest, widest := 0, 0
	for _, c := range cycles {
		longest = max(longest, c.Len())
	}
	for _, p := range g.Productions {
		widest = max(widest, len(p.RHS.Nodes))
	}
	if len(g.Productions) > MaxEdgeIndex || longest > MaxEdgeOffset || widest > MaxEdgeChild {
		return fmt.Errorf("core: %d productions, a cycle of %d edges or a production of %d nodes do not fit an edge label (at most %d, %d and %d)",
			len(g.Productions), longest, widest, MaxEdgeIndex, MaxEdgeOffset, MaxEdgeChild)
	}
	return nil
}

// IsBasic reports whether the scheme labels runs with basic (uncompressed)
// parse trees.
func (s *Scheme) IsBasic() bool { return s.basic }

// NewDeriver starts a derivation of the scheme's specification at the
// unexpanded start module. Derivers of one scheme share its compiled
// productions.
func (s *Scheme) NewDeriver() *run.Deriver { return s.templates.NewDeriver() }

// Codec returns the bit-level codec for this scheme's data labels.
func (s *Scheme) Codec() *Codec { return s.codec }

// Cycle returns the s-th cycle (1-based).
func (s *Scheme) Cycle(idx int) (prodgraph.Cycle, error) {
	if idx < 1 || idx > len(s.Cycles) {
		return prodgraph.Cycle{}, fmt.Errorf("core: no cycle %d", idx)
	}
	return s.Cycles[idx-1], nil
}

// cycleOf returns the cycle index and offset of a recursive module. In basic
// mode no module is treated as recursive, so the compressed parse tree
// degenerates into the basic parse tree.
func (s *Scheme) cycleOf(module string) (cycle, offset int, ok bool) {
	if s.basic {
		return 0, 0, false
	}
	return s.Graph.CycleOf(module)
}

// moduleAtCycleOffset returns the module whose outgoing cycle edge is the
// offset-th edge (1-based, with wraparound) of cycle s.
func (s *Scheme) moduleAtCycleOffset(cycle, offset int) (workflow.Module, error) {
	name, err := s.cycleModule(cycle, offset)
	if err != nil {
		return workflow.Module{}, err
	}
	return s.Spec.Grammar.Modules[name], nil
}

// cycleModule is moduleAtCycleOffset's module name.
func (s *Scheme) cycleModule(cycle, offset int) (string, error) {
	c, err := s.Cycle(cycle)
	if err != nil {
		return "", err
	}
	return c.Modules[(offset-1)%c.Len()], nil
}
