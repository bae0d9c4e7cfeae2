// Package safety implements the safety analysis of Section 3.1 of the paper:
// deciding whether a fine-grained workflow specification (or view) is safe
// (Definition 13) by computing the unique full dependency assignment λ*
// (Lemma 1) with the polynomial-time worklist algorithm of Theorem 2. It also
// exposes per-production port-level reachability closures, which are the raw
// material of the I, O and Z functions of the view labels (Section 4.3).
package safety

import (
	"fmt"

	"repro/internal/boolmat"
	"repro/internal/workflow"
)

// Closure is the port-level reachability closure of one simple workflow W
// under a dependency assignment that covers every module occurring in W.
// All matrices are expressed in terms of W's initial input ports, final
// output ports, and the ports of its nodes.
type Closure struct {
	w     *workflow.SimpleWorkflow
	decls []workflow.Module

	initIn   []workflow.PortRef // initial inputs in canonical order
	finalOut []workflow.PortRef // final outputs in canonical order

	// reach is the packed reachability relation of the port graph: row v
	// (stride words starting at v*stride) is the bitset of vertices reachable
	// from vertex v.
	reach  []uint64
	stride int
	// vertex ids
	inBase  []int // inBase[node] + port  = vertex of input port
	outBase []int // outBase[node] + port = vertex of output port
	n       int
}

// NewClosure computes the closure of w. deps must define a dependency matrix
// for every module occurring in w (for composite modules this is the full
// assignment λ*).
func NewClosure(mods workflow.ModuleLookup, w *workflow.SimpleWorkflow, deps workflow.DependencyAssignment) (*Closure, error) {
	c := &Closure{w: w}
	c.decls = make([]workflow.Module, len(w.Nodes))
	for i, name := range w.Nodes {
		m, ok := mods.Module(name)
		if !ok {
			return nil, fmt.Errorf("safety: unknown module %q", name)
		}
		c.decls[i] = m
	}
	var err error
	c.initIn, err = w.InitialInputs(mods)
	if err != nil {
		return nil, err
	}
	c.finalOut, err = w.FinalOutputs(mods)
	if err != nil {
		return nil, err
	}

	// Assign vertex ids: all input ports then all output ports, node by node.
	c.inBase = make([]int, len(w.Nodes))
	c.outBase = make([]int, len(w.Nodes))
	id := 0
	for i, m := range c.decls {
		c.inBase[i] = id
		id += m.In
	}
	for i, m := range c.decls {
		c.outBase[i] = id
		id += m.Out
	}
	c.n = id

	// Adjacency: dependency edges within nodes and data edges between nodes.
	adj := make([][]int, c.n)
	for i, m := range c.decls {
		mat, ok := deps[w.Nodes[i]]
		if !ok {
			return nil, fmt.Errorf("safety: no dependency matrix for module %q", w.Nodes[i])
		}
		if mat.Rows() != m.In || mat.Cols() != m.Out {
			return nil, fmt.Errorf("safety: dependency matrix for %q is %dx%d, want %dx%d",
				w.Nodes[i], mat.Rows(), mat.Cols(), m.In, m.Out)
		}
		for in := 0; in < m.In; in++ {
			for out := 0; out < m.Out; out++ {
				if mat.Get(in, out) {
					adj[c.inBase[i]+in] = append(adj[c.inBase[i]+in], c.outBase[i]+out)
				}
			}
		}
	}
	for _, e := range w.Edges {
		adj[c.outBase[e.FromNode]+e.FromPort] = append(adj[c.outBase[e.FromNode]+e.FromPort], c.inBase[e.ToNode]+e.ToPort)
	}

	// Transitive, reflexive reachability from every vertex, as packed bitset
	// rows: instead of one BFS per vertex (O(V*E) boolean operations), the
	// rows are combined with word-parallel ORs, 64 vertices per instruction.
	c.stride = (c.n + 63) / 64
	c.reach = make([]uint64, c.n*c.stride)
	order, acyclic := topoOrder(c.n, adj)
	if acyclic {
		// Port graphs of well-formed simple workflows are DAGs: process the
		// vertices in reverse topological order, so every successor's row is
		// final when it is ORed in, and one pass suffices:
		// reach(v) = {v} ∪ ⋃_{(v,u)∈E} reach(u).
		for idx := len(order) - 1; idx >= 0; idx-- {
			v := order[idx]
			row := c.reach[v*c.stride : (v+1)*c.stride]
			row[v/64] |= 1 << (uint(v) % 64)
			for _, next := range adj[v] {
				nrow := c.reach[next*c.stride : (next+1)*c.stride]
				for w := range row {
					row[w] |= nrow[w]
				}
			}
		}
		return c, nil
	}
	// Cyclic port graph (rejected later by the safety analysis, but the
	// closure stays total): word-parallel sweeps to a fixpoint.
	for v := 0; v < c.n; v++ {
		c.reach[v*c.stride+v/64] |= 1 << (uint(v) % 64)
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < c.n; v++ {
			row := c.reach[v*c.stride : (v+1)*c.stride]
			for _, next := range adj[v] {
				nrow := c.reach[next*c.stride : (next+1)*c.stride]
				for w := range row {
					if or := row[w] | nrow[w]; or != row[w] {
						row[w] = or
						changed = true
					}
				}
			}
		}
	}
	return c, nil
}

// topoOrder returns a topological order of the n-vertex graph and whether the
// graph is acyclic (when it is not, the returned order is partial).
func topoOrder(n int, adj [][]int) ([]int, bool) {
	indeg := make([]int, n)
	for _, outs := range adj {
		for _, v := range outs {
			indeg[v]++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range adj[order[head]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order, len(order) == n
}

// reachBit reports whether vertex v is reachable from vertex u.
func (c *Closure) reachBit(u, v int) bool {
	return c.reach[u*c.stride+v/64]>>(uint(v)%64)&1 != 0
}

func (c *Closure) portVertex(p workflow.PortRef) int {
	if p.Kind == workflow.InPort {
		return c.inBase[p.Node] + p.Port
	}
	return c.outBase[p.Node] + p.Port
}

// ReachablePorts reports whether port "to" is reachable from port "from"
// within W (following dependency edges inside nodes and data edges between
// nodes). A port is reachable from itself.
func (c *Closure) ReachablePorts(from, to workflow.PortRef) bool {
	return c.reachBit(c.portVertex(from), c.portVertex(to))
}

// LHSMatrix returns the matrix from W's initial inputs to W's final outputs:
// entry (x, y) is true when the y-th final output is reachable from the x-th
// initial input. Under the production bijection this is the induced
// dependency matrix of the production's left-hand side.
func (c *Closure) LHSMatrix() *boolmat.Matrix {
	m := boolmat.New(len(c.initIn), len(c.finalOut))
	for x, in := range c.initIn {
		for y, out := range c.finalOut {
			if c.ReachablePorts(in, out) {
				m.Set(x, y, true)
			}
		}
	}
	return m
}

// InputsTo returns the I matrix for node i (0-based): entry (x, y) is true
// when input port y of node i is reachable from the x-th initial input of W.
func (c *Closure) InputsTo(i int) *boolmat.Matrix {
	m := boolmat.New(len(c.initIn), c.decls[i].In)
	for x, in := range c.initIn {
		for y := 0; y < c.decls[i].In; y++ {
			if c.reachBit(c.portVertex(in), c.inBase[i]+y) {
				m.Set(x, y, true)
			}
		}
	}
	return m
}

// OutputsTo returns the (reversed) O matrix for node i: entry (x, y) is true
// when the x-th final output of W is reachable from output port y of node i.
func (c *Closure) OutputsTo(i int) *boolmat.Matrix {
	m := boolmat.New(len(c.finalOut), c.decls[i].Out)
	for x, out := range c.finalOut {
		for y := 0; y < c.decls[i].Out; y++ {
			if c.reachBit(c.outBase[i]+y, c.portVertex(out)) {
				m.Set(x, y, true)
			}
		}
	}
	return m
}

// Between returns the Z matrix for the node pair (i, j): entry (x, y) is true
// when input port y of node j is reachable from output port x of node i.
// For i >= j (in topological order) the matrix is necessarily empty.
func (c *Closure) Between(i, j int) *boolmat.Matrix {
	m := boolmat.New(c.decls[i].Out, c.decls[j].In)
	if i >= j {
		return m
	}
	for x := 0; x < c.decls[i].Out; x++ {
		for y := 0; y < c.decls[j].In; y++ {
			if c.reachBit(c.outBase[i]+x, c.inBase[j]+y) {
				m.Set(x, y, true)
			}
		}
	}
	return m
}
