package workflow

import (
	"fmt"
	"sort"
)

// Production is a workflow production M -> W (Definition 3): the composite
// module LHS may be replaced by the simple workflow RHS. The bijection between
// the ports of LHS and the initial inputs / final outputs of RHS is implicit:
// the x-th input (output) port of LHS corresponds to the x-th initial input
// (final output) of RHS in node-then-port order.
type Production struct {
	LHS string
	RHS *SimpleWorkflow
}

// Grammar is a context-free workflow grammar (Definition 4). The composite
// module set Delta is exactly the set of left-hand sides of Productions;
// every other module in Modules is atomic. Productions are numbered 1..len(P)
// in declaration order.
type Grammar struct {
	Modules     map[string]Module
	Start       string
	Productions []Production
}

// Module implements ModuleLookup.
func (g *Grammar) Module(name string) (Module, bool) {
	m, ok := g.Modules[name]
	return m, ok
}

// Composites returns the sorted set of composite modules (left-hand sides of
// productions).
func (g *Grammar) Composites() []string {
	set := map[string]bool{}
	for _, p := range g.Productions {
		set[p.LHS] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// IsComposite reports whether the module is the left-hand side of at least
// one production.
func (g *Grammar) IsComposite(name string) bool {
	for _, p := range g.Productions {
		if p.LHS == name {
			return true
		}
	}
	return false
}

// Atomics returns the sorted set of atomic modules (modules that are never a
// left-hand side).
func (g *Grammar) Atomics() []string {
	comp := map[string]bool{}
	for _, p := range g.Productions {
		comp[p.LHS] = true
	}
	var out []string
	for name := range g.Modules {
		if !comp[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ProductionsFor returns the 1-based indices of the productions whose
// left-hand side is the given module, in declaration order.
func (g *Grammar) ProductionsFor(module string) []int {
	var out []int
	for i, p := range g.Productions {
		if p.LHS == module {
			out = append(out, i+1)
		}
	}
	return out
}

// Clone returns a deep copy of the grammar.
func (g *Grammar) Clone() *Grammar {
	c := &Grammar{
		Modules:     make(map[string]Module, len(g.Modules)),
		Start:       g.Start,
		Productions: make([]Production, len(g.Productions)),
	}
	for k, v := range g.Modules {
		c.Modules[k] = v
	}
	for i, p := range g.Productions {
		c.Productions[i] = Production{LHS: p.LHS, RHS: p.RHS.Clone()}
	}
	return c
}

// Validate checks the structural well-formedness of the grammar: the start
// module exists, every production's left-hand side exists and is consistent
// with the arity of its right-hand side (the number of initial inputs / final
// outputs of the RHS equals the number of input / output ports of the LHS),
// and every right-hand side is a valid, topologically ordered simple
// workflow.
func (g *Grammar) Validate() error {
	if g.Start == "" {
		return fmt.Errorf("workflow: grammar has no start module")
	}
	if _, ok := g.Modules[g.Start]; !ok {
		return fmt.Errorf("workflow: start module %q is not declared", g.Start)
	}
	for name, m := range g.Modules {
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Name != name {
			return fmt.Errorf("workflow: module map key %q does not match module name %q", name, m.Name)
		}
	}
	for pi, p := range g.Productions {
		lhs, ok := g.Modules[p.LHS]
		if !ok {
			return fmt.Errorf("workflow: production %d has undeclared left-hand side %q", pi+1, p.LHS)
		}
		if p.RHS == nil {
			return fmt.Errorf("workflow: production %d (%s) has nil right-hand side", pi+1, p.LHS)
		}
		if err := p.RHS.Validate(g); err != nil {
			return fmt.Errorf("workflow: production %d (%s): %w", pi+1, p.LHS, err)
		}
		// The port bijection is checked by counting the open ports, not by
		// listing them: listing costs time and memory in the declared port
		// counts, which a specification read from untrusted bytes can make
		// astronomically large for a few bytes of input.
		ins, outs := p.RHS.openPortCounts(g)
		if ins != lhs.In {
			return fmt.Errorf("workflow: production %d: %q has %d inputs but its right-hand side has %d initial inputs",
				pi+1, p.LHS, lhs.In, ins)
		}
		if outs != lhs.Out {
			return fmt.Errorf("workflow: production %d: %q has %d outputs but its right-hand side has %d final outputs",
				pi+1, p.LHS, lhs.Out, outs)
		}
	}
	return nil
}

// derivableSet computes the set of modules reachable from the start module by
// following productions (the module itself plus every module occurring in a
// right-hand side of a reachable composite).
func (g *Grammar) derivableSet() map[string]bool {
	reach := map[string]bool{g.Start: true}
	changed := true
	for changed {
		changed = false
		for _, p := range g.Productions {
			if !reach[p.LHS] {
				continue
			}
			for _, name := range p.RHS.Nodes {
				if !reach[name] {
					reach[name] = true
					changed = true
				}
			}
		}
	}
	return reach
}

// productiveSet computes the set of composite modules that can derive a
// simple workflow consisting only of atomic modules.
func (g *Grammar) productiveSet() map[string]bool {
	productive := map[string]bool{}
	for _, name := range g.Atomics() {
		productive[name] = true
	}
	changed := true
	for changed {
		changed = false
		for _, p := range g.Productions {
			if productive[p.LHS] {
				continue
			}
			all := true
			for _, name := range p.RHS.Nodes {
				if !productive[name] {
					all = false
					break
				}
			}
			if all {
				productive[p.LHS] = true
				changed = true
			}
		}
	}
	return productive
}

// unitCycle reports whether some composite module M satisfies M =>+ M, i.e.
// there is a cycle of unit productions (productions whose right-hand side is
// a single module). This is condition (3) of properness (Definition 5).
func (g *Grammar) unitCycle() bool {
	// Unit-production graph over modules.
	succ := map[string][]string{}
	for _, p := range g.Productions {
		if len(p.RHS.Nodes) == 1 {
			succ[p.LHS] = append(succ[p.LHS], p.RHS.Nodes[0])
		}
	}
	// DFS-based cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) bool
	visit = func(v string) bool {
		color[v] = grey
		for _, w := range succ[v] {
			switch color[w] {
			case grey:
				return true
			case white:
				if visit(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := range succ {
		if color[v] == white {
			if visit(v) {
				return true
			}
		}
	}
	return false
}

// ProperViolation describes why a grammar fails to be proper.
type ProperViolation struct {
	Kind   string // "underivable", "unproductive" or "cycle"
	Module string // offending module ("" for cycle)
}

// Error implements the error interface.
func (v *ProperViolation) Error() string {
	switch v.Kind {
	case "underivable":
		return fmt.Sprintf("workflow: grammar is not proper: composite module %q is underivable", v.Module)
	case "unproductive":
		return fmt.Sprintf("workflow: grammar is not proper: composite module %q is unproductive", v.Module)
	default:
		return "workflow: grammar is not proper: it contains a unit-production cycle"
	}
}

// CheckProper verifies the three properness conditions of Definition 5 and
// returns a ProperViolation describing the first failure, or nil.
func (g *Grammar) CheckProper() error {
	reach := g.derivableSet()
	for _, m := range g.Composites() {
		if !reach[m] {
			return &ProperViolation{Kind: "underivable", Module: m}
		}
	}
	productive := g.productiveSet()
	for _, m := range g.Composites() {
		if !productive[m] {
			return &ProperViolation{Kind: "unproductive", Module: m}
		}
	}
	if g.unitCycle() {
		return &ProperViolation{Kind: "cycle"}
	}
	return nil
}
