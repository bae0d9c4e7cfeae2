package workflow

import (
	"fmt"
	"math"
	"sort"
)

// PortKind distinguishes input ports from output ports.
type PortKind int

const (
	// InPort is an input port of a module.
	InPort PortKind = iota
	// OutPort is an output port of a module.
	OutPort
)

// String returns "in" or "out".
func (k PortKind) String() string {
	if k == InPort {
		return "in"
	}
	return "out"
}

// PortRef identifies a port of one node occurrence inside a simple workflow.
type PortRef struct {
	Node int      // index into SimpleWorkflow.Nodes
	Kind PortKind // input or output side
	Port int      // 0-based port index on that side
}

// String renders the reference as "node[2].in[0]".
func (p PortRef) String() string {
	return fmt.Sprintf("node[%d].%s[%d]", p.Node, p.Kind, p.Port)
}

// DataEdge is a data edge of a simple workflow (Definition 2): it carries one
// data item from an output port of one node to an input port of another node.
type DataEdge struct {
	FromNode int // producing node index
	FromPort int // output port index of the producing node
	ToNode   int // consuming node index
	ToPort   int // input port index of the consuming node
}

// SimpleWorkflow is a simple workflow (Definition 2): a multiset of module
// occurrences (Nodes, referenced by module name) connected by data edges.
// Nodes must be listed in a topological order of the data-edge DAG; this is
// the fixed ordering used for production-graph edge numbering (Section 4.1).
type SimpleWorkflow struct {
	Nodes []string
	Edges []DataEdge
}

// Clone returns a deep copy of the workflow.
func (w *SimpleWorkflow) Clone() *SimpleWorkflow {
	c := &SimpleWorkflow{
		Nodes: append([]string(nil), w.Nodes...),
		Edges: append([]DataEdge(nil), w.Edges...),
	}
	return c
}

// ModuleLookup resolves a module name to its declaration.
type ModuleLookup interface {
	Module(name string) (Module, bool)
}

// Validate checks the structural well-formedness of the workflow against a
// module table: node names resolve, edge endpoints and port indices are in
// range, data edges are pairwise non-adjacent (no port carries two edges) and
// the node list is a topological order of the edges (which also implies
// acyclicity).
func (w *SimpleWorkflow) Validate(mods ModuleLookup) error {
	if len(w.Nodes) == 0 {
		return fmt.Errorf("workflow: simple workflow has no nodes")
	}
	decls := make([]Module, len(w.Nodes))
	for i, name := range w.Nodes {
		m, ok := mods.Module(name)
		if !ok {
			return fmt.Errorf("workflow: node %d references unknown module %q", i, name)
		}
		decls[i] = m
	}
	inUsed := map[[2]int]bool{}
	outUsed := map[[2]int]bool{}
	for ei, e := range w.Edges {
		if e.FromNode < 0 || e.FromNode >= len(w.Nodes) || e.ToNode < 0 || e.ToNode >= len(w.Nodes) {
			return fmt.Errorf("workflow: edge %d has node index out of range", ei)
		}
		if e.FromNode == e.ToNode {
			return fmt.Errorf("workflow: edge %d is a self-loop on node %d", ei, e.FromNode)
		}
		if e.FromPort < 0 || e.FromPort >= decls[e.FromNode].Out {
			return fmt.Errorf("workflow: edge %d uses output port %d of %q which has %d outputs",
				ei, e.FromPort, w.Nodes[e.FromNode], decls[e.FromNode].Out)
		}
		if e.ToPort < 0 || e.ToPort >= decls[e.ToNode].In {
			return fmt.Errorf("workflow: edge %d uses input port %d of %q which has %d inputs",
				ei, e.ToPort, w.Nodes[e.ToNode], decls[e.ToNode].In)
		}
		ok := [2]int{e.FromNode, e.FromPort}
		ik := [2]int{e.ToNode, e.ToPort}
		if outUsed[ok] {
			return fmt.Errorf("workflow: output port %d of node %d carries more than one data edge", e.FromPort, e.FromNode)
		}
		if inUsed[ik] {
			return fmt.Errorf("workflow: input port %d of node %d carries more than one data edge", e.ToPort, e.ToNode)
		}
		outUsed[ok] = true
		inUsed[ik] = true
		if e.FromNode >= e.ToNode {
			return fmt.Errorf("workflow: edge %d goes from node %d to node %d; nodes must be listed in topological order", ei, e.FromNode, e.ToNode)
		}
	}
	return nil
}

// IsTopologicallyOrdered reports whether every data edge goes from a lower
// node index to a higher one.
func (w *SimpleWorkflow) IsTopologicallyOrdered() bool {
	for _, e := range w.Edges {
		if e.FromNode >= e.ToNode {
			return false
		}
	}
	return true
}

// Normalize returns a copy of the workflow whose nodes are reordered into a
// deterministic (stable Kahn) topological order, or an error if the data
// edges form a cycle.
func (w *SimpleWorkflow) Normalize() (*SimpleWorkflow, error) {
	n := len(w.Nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range w.Edges {
		if e.FromNode < 0 || e.FromNode >= n || e.ToNode < 0 || e.ToNode >= n {
			return nil, fmt.Errorf("workflow: edge node index out of range")
		}
		indeg[e.ToNode]++
		succ[e.FromNode] = append(succ[e.FromNode], e.ToNode)
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workflow: data edges form a cycle")
	}
	pos := make([]int, n)
	for newIdx, oldIdx := range order {
		pos[oldIdx] = newIdx
	}
	out := &SimpleWorkflow{Nodes: make([]string, n), Edges: make([]DataEdge, len(w.Edges))}
	for oldIdx, name := range w.Nodes {
		out.Nodes[pos[oldIdx]] = name
	}
	for i, e := range w.Edges {
		out.Edges[i] = DataEdge{
			FromNode: pos[e.FromNode], FromPort: e.FromPort,
			ToNode: pos[e.ToNode], ToPort: e.ToPort,
		}
	}
	return out, nil
}

// openPortCounts returns the number of initial input and final output ports
// of a workflow that passed Validate: each data edge closes one input and one
// output port, and Validate has checked that no port carries two, so the
// counts are the declared port counts less the edges. A sum past the int
// range saturates at math.MaxInt.
func (w *SimpleWorkflow) openPortCounts(mods ModuleLookup) (ins, outs int) {
	ins, outs = -len(w.Edges), -len(w.Edges)
	for _, name := range w.Nodes {
		m, _ := mods.Module(name)
		ins = addSaturating(ins, m.In)
		outs = addSaturating(outs, m.Out)
	}
	return ins, outs
}

// addSaturating returns a+b for b >= 0, or math.MaxInt if that overflows.
func addSaturating(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// InitialInputs enumerates the initial input ports of the workflow (input
// ports with no incoming data edge), in node order then port order. This is
// the fixed order used by production bijections.
func (w *SimpleWorkflow) InitialInputs(mods ModuleLookup) ([]PortRef, error) {
	used := map[[2]int]bool{}
	for _, e := range w.Edges {
		used[[2]int{e.ToNode, e.ToPort}] = true
	}
	var out []PortRef
	for ni, name := range w.Nodes {
		m, ok := mods.Module(name)
		if !ok {
			return nil, fmt.Errorf("workflow: unknown module %q", name)
		}
		for p := 0; p < m.In; p++ {
			if !used[[2]int{ni, p}] {
				out = append(out, PortRef{Node: ni, Kind: InPort, Port: p})
			}
		}
	}
	return out, nil
}

// FinalOutputs enumerates the final output ports of the workflow (output
// ports with no outgoing data edge), in node order then port order.
func (w *SimpleWorkflow) FinalOutputs(mods ModuleLookup) ([]PortRef, error) {
	used := map[[2]int]bool{}
	for _, e := range w.Edges {
		used[[2]int{e.FromNode, e.FromPort}] = true
	}
	var out []PortRef
	for ni, name := range w.Nodes {
		m, ok := mods.Module(name)
		if !ok {
			return nil, fmt.Errorf("workflow: unknown module %q", name)
		}
		for p := 0; p < m.Out; p++ {
			if !used[[2]int{ni, p}] {
				out = append(out, PortRef{Node: ni, Kind: OutPort, Port: p})
			}
		}
	}
	return out, nil
}
