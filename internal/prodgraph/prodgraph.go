// Package prodgraph implements the production graph of a workflow grammar
// (Definition 15 of the paper), the (k, i) edge numbering of Section 4.1, the
// enumeration of its cycles, and the decision procedures for linear-recursive
// (Definition 14) and strictly linear-recursive (Definition 16) grammars
// (Theorem 7).
package prodgraph

import (
	"fmt"
	"sort"

	"repro/internal/workflow"
)

// Edge is one edge of the production graph: for production number K (1-based)
// with left-hand side From and I-th right-hand-side node (1-based) of module
// To, the graph has the edge (K, I) from From to To.
type Edge struct {
	K    int
	I    int
	From string
	To   string
}

// String renders the edge as "(k,i) From->To".
func (e Edge) String() string { return fmt.Sprintf("(%d,%d) %s->%s", e.K, e.I, e.From, e.To) }

// Cycle is one cycle of the production graph of a strictly linear-recursive
// grammar, represented as the ordered list of its edges: Edges[a] leaves
// Modules[a] and enters Modules[(a+1) mod len]. Index is the 1-based cycle
// number s used in recursive edge labels (s, t, i).
type Cycle struct {
	Index   int
	Edges   []Edge
	Modules []string
}

// Len returns the number of edges (equivalently modules) on the cycle.
func (c Cycle) Len() int { return len(c.Edges) }

// EdgeAt returns the t-th edge of the cycle (1-based) with wraparound, i.e.
// the paper's convention k_{a+l} = k_a, i_{a+l} = i_a. Positions below 1
// panic.
func (c Cycle) EdgeAt(t int) Edge {
	if t < 1 {
		panic("prodgraph: cycle edge position must be >= 1")
	}
	return c.Edges[(t-1)%len(c.Edges)]
}

// Graph is the production graph of a workflow grammar together with the
// fixed edge numbering and (for strictly linear-recursive grammars) the fixed
// cycle enumeration of Section 4.1.
type Graph struct {
	grammar *workflow.Grammar
	edges   []Edge
	byKI    map[[2]int]int   // (k,i) -> index into edges
	out     map[string][]int // module -> outgoing edge indices
	in      map[string][]int // module -> incoming edge indices
	modules []string         // sorted vertex set

	reach map[string]map[string]bool // transitive reachability (reflexive)

	cycles      []Cycle
	cycleErr    error
	cycleByMod  map[string]cyclePos
	cyclesBuilt bool
}

type cyclePos struct {
	s int // 1-based cycle index
	t int // 1-based position of the edge leaving the module within the cycle
}

// New builds the production graph of a grammar. The grammar should already be
// validated; New does not re-validate it.
func New(g *workflow.Grammar) *Graph {
	pg := &Graph{
		grammar: g,
		byKI:    map[[2]int]int{},
		out:     map[string][]int{},
		in:      map[string][]int{},
	}
	for name := range g.Modules {
		pg.modules = append(pg.modules, name)
	}
	sort.Strings(pg.modules)
	for k, p := range g.Productions {
		for i, to := range p.RHS.Nodes {
			e := Edge{K: k + 1, I: i + 1, From: p.LHS, To: to}
			idx := len(pg.edges)
			pg.edges = append(pg.edges, e)
			pg.byKI[[2]int{e.K, e.I}] = idx
			pg.out[e.From] = append(pg.out[e.From], idx)
			pg.in[e.To] = append(pg.in[e.To], idx)
		}
	}
	pg.computeReachability()
	return pg
}

// Grammar returns the grammar the graph was built from.
func (pg *Graph) Grammar() *workflow.Grammar { return pg.grammar }

// Edges returns all edges in (k, i) order.
func (pg *Graph) Edges() []Edge {
	out := append([]Edge(nil), pg.edges...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].K != out[b].K {
			return out[a].K < out[b].K
		}
		return out[a].I < out[b].I
	})
	return out
}

// Edge returns the edge with the given (k, i) identifier.
func (pg *Graph) Edge(k, i int) (Edge, bool) {
	idx, ok := pg.byKI[[2]int{k, i}]
	if !ok {
		return Edge{}, false
	}
	return pg.edges[idx], true
}

// Modules returns the sorted vertex set.
func (pg *Graph) Modules() []string { return append([]string(nil), pg.modules...) }

// Size returns the total number of vertices and edges, the measure used in
// the complexity analysis of Theorem 7.
func (pg *Graph) Size() int { return len(pg.modules) + len(pg.edges) }

func (pg *Graph) computeReachability() {
	pg.reach = make(map[string]map[string]bool, len(pg.modules))
	for _, v := range pg.modules {
		seen := map[string]bool{v: true} // a vertex reaches itself (footnote 4)
		queue := []string{v}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, ei := range pg.out[cur] {
				to := pg.edges[ei].To
				if !seen[to] {
					seen[to] = true
					queue = append(queue, to)
				}
			}
		}
		pg.reach[v] = seen
	}
}

// Reachable reports whether module "to" is reachable from module "from" in
// the production graph. Every module is reachable from itself.
func (pg *Graph) Reachable(from, to string) bool {
	r, ok := pg.reach[from]
	return ok && r[to]
}

// IsRecursive reports whether the module lies on some cycle of the production
// graph, i.e. whether it can (transitively) derive a workflow containing
// itself.
func (pg *Graph) IsRecursive(module string) bool {
	for _, ei := range pg.out[module] {
		if pg.Reachable(pg.edges[ei].To, module) {
			return true
		}
	}
	return false
}

// IsLinearRecursive reports whether the grammar is linear-recursive
// (Definition 14), using the characterization of Lemma 3: for every
// production M -> W, at most one module occurrence of W can reach M.
func (pg *Graph) IsLinearRecursive() bool {
	for _, p := range pg.grammar.Productions {
		count := 0
		for _, node := range p.RHS.Nodes {
			if pg.Reachable(node, p.LHS) {
				count++
				if count > 1 {
					return false
				}
			}
		}
	}
	return true
}

// IsStrictlyLinearRecursive reports whether all cycles of the production
// graph are vertex-disjoint (Definition 16). The check uses the strongly
// connected component structure: cycles are vertex-disjoint exactly when
// every recursive module has exactly one outgoing and one incoming edge
// inside its strongly connected component and no two parallel edges stay
// within the component.
func (pg *Graph) IsStrictlyLinearRecursive() bool {
	pg.buildCycles()
	return pg.cycleErr == nil
}

// Cycles returns the fixed enumeration of the (vertex-disjoint) cycles of the
// production graph: cycles are ordered by their smallest module name and each
// cycle starts at its smallest module. It returns an error if the grammar is
// not strictly linear-recursive.
func (pg *Graph) Cycles() ([]Cycle, error) {
	pg.buildCycles()
	if pg.cycleErr != nil {
		return nil, pg.cycleErr
	}
	return pg.cycles, nil
}

// CycleOf returns, for a recursive module of a strictly linear-recursive
// grammar, the 1-based cycle index s and the 1-based position t of the edge
// leaving the module within that cycle. ok is false when the module is not
// recursive or the grammar is not strictly linear-recursive.
func (pg *Graph) CycleOf(module string) (s, t int, ok bool) {
	pg.buildCycles()
	if pg.cycleErr != nil {
		return 0, 0, false
	}
	pos, ok := pg.cycleByMod[module]
	if !ok {
		return 0, 0, false
	}
	return pos.s, pos.t, true
}

func (pg *Graph) buildCycles() {
	if pg.cyclesBuilt {
		return
	}
	pg.cyclesBuilt = true
	pg.cycleByMod = map[string]cyclePos{}

	// A module is recursive when it lies on a cycle. Group recursive modules
	// into strongly connected components: m and n are in the same component
	// when each reaches the other.
	recursive := map[string]bool{}
	for _, m := range pg.modules {
		if pg.IsRecursive(m) {
			recursive[m] = true
		}
	}
	assigned := map[string]bool{}
	var components [][]string
	for _, m := range pg.modules {
		if !recursive[m] || assigned[m] {
			continue
		}
		var comp []string
		for _, n := range pg.modules {
			if recursive[n] && pg.Reachable(m, n) && pg.Reachable(n, m) {
				comp = append(comp, n)
				assigned[n] = true
			}
		}
		sort.Strings(comp)
		components = append(components, comp)
	}
	// Order components by their smallest module name (already sorted within).
	sort.Slice(components, func(a, b int) bool { return components[a][0] < components[b][0] })

	for _, comp := range components {
		inComp := map[string]bool{}
		for _, m := range comp {
			inComp[m] = true
		}
		// Each member must have exactly one outgoing and one incoming edge
		// that stays within the component; otherwise two cycles share a vertex.
		next := map[string]Edge{}
		for _, m := range comp {
			var outs []Edge
			for _, ei := range pg.out[m] {
				e := pg.edges[ei]
				if inComp[e.To] {
					outs = append(outs, e)
				}
			}
			var ins int
			for _, ei := range pg.in[m] {
				if inComp[pg.edges[ei].From] {
					ins++
				}
			}
			if len(outs) != 1 || ins != 1 {
				pg.cycleErr = fmt.Errorf("prodgraph: grammar is not strictly linear-recursive: module %q lies on intersecting cycles", m)
				pg.cycles = nil
				pg.cycleByMod = map[string]cyclePos{}
				return
			}
			next[m] = outs[0]
		}
		// Walk the unique cycle starting from the smallest module name.
		start := comp[0]
		cycle := Cycle{Index: len(pg.cycles) + 1}
		cur := start
		for {
			e := next[cur]
			pg.cycleByMod[cur] = cyclePos{s: cycle.Index, t: len(cycle.Edges) + 1}
			cycle.Edges = append(cycle.Edges, e)
			cycle.Modules = append(cycle.Modules, cur)
			cur = e.To
			if cur == start {
				break
			}
			if len(cycle.Edges) > len(comp) {
				pg.cycleErr = fmt.Errorf("prodgraph: internal error walking cycle starting at %q", start)
				return
			}
		}
		if len(cycle.Edges) != len(comp) {
			// The single out-edge walk did not visit the whole component,
			// which means the component is not a single simple cycle.
			pg.cycleErr = fmt.Errorf("prodgraph: grammar is not strictly linear-recursive: component containing %q is not a simple cycle", start)
			pg.cycles = nil
			pg.cycleByMod = map[string]cyclePos{}
			return
		}
		pg.cycles = append(pg.cycles, cycle)
	}
}

// IsStrictlyLinearRecursiveSearch is an alternative implementation of the
// strictness test following the search-based algorithm in the proof of
// Theorem 7: for every vertex v, find a cycle through v; if after removing
// any single edge of that cycle another cycle through v still exists, two
// distinct cycles share v and the grammar is not strictly linear-recursive.
// It exists to cross-check IsStrictlyLinearRecursive in tests.
func (pg *Graph) IsStrictlyLinearRecursiveSearch() bool {
	for _, v := range pg.modules {
		cycle := pg.findCycleThrough(v, -1)
		if cycle == nil {
			continue
		}
		for _, skip := range cycle {
			if pg.findCycleThrough(v, skip) != nil {
				return false
			}
		}
	}
	return true
}

// findCycleThrough returns the edge indices of some cycle through v that does
// not use the edge with index skipEdge (-1 to allow all edges), or nil.
func (pg *Graph) findCycleThrough(v string, skipEdge int) []int {
	// BFS from v recording parent edges; a cycle through v exists when v is
	// re-entered.
	type item struct {
		module string
		path   []int
	}
	visited := map[string]bool{}
	queue := []item{{module: v}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ei := range pg.out[cur.module] {
			if ei == skipEdge {
				continue
			}
			e := pg.edges[ei]
			path := append(append([]int(nil), cur.path...), ei)
			if e.To == v {
				return path
			}
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, item{module: e.To, path: path})
			}
		}
	}
	return nil
}
