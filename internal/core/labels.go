// Package core implements FVL, the view-adaptive dynamic labeling scheme of
// the paper (Sections 4.1-4.5): data items of a run are labeled online, as
// they are produced, with compact labels derived from the compressed parse
// tree of the derivation; views are labeled statically with the reachability
// matrices {λ*(S), I, O, Z}; and a decoding predicate combines two data
// labels with one view label to answer "does d2 depend on d1 w.r.t. this
// view?" in constant time.
package core

import (
	"cmp"
	"fmt"
	"strings"
)

// EdgeLabel identifies one edge of the compressed parse tree (Section 4.2.2).
// A non-recursive edge is identified by the production-graph edge (K, I): the
// child is the I-th right-hand-side node of production K. A recursive edge
// belongs to a recursive node that unfolds cycle S of the production graph
// starting from its T-th edge; the child is the I-th unfolded composite
// module. An edge packs into 8 bytes; NewScheme, the run labeler and the
// codec refuse values past the Max constants.
type EdgeLabel struct {
	i  uint32 // I
	ks uint16 // K, or S in the recursive form
	t  uint16 // recursiveFlag | T in the recursive form; 0 otherwise
}

// The largest values an EdgeLabel holds.
const (
	MaxEdgeIndex  = 1<<16 - 1 // K and S
	MaxEdgeOffset = 1<<15 - 1 // T
	MaxEdgeChild  = 1<<32 - 1 // I

	recursiveFlag = 1 << 15
)

// NonRecursiveEdge builds a (k, i) edge label. It panics if a value is
// negative or past its Max constant.
func NonRecursiveEdge(k, i int) EdgeLabel {
	if k < 0 || k > MaxEdgeIndex || i < 0 || i > MaxEdgeChild {
		panic(fmt.Sprintf("core: edge (%d,%d) does not fit an edge label", k, i))
	}
	return EdgeLabel{i: uint32(i), ks: uint16(k)}
}

// RecursiveEdge builds an (s, t, i) edge label. It panics if a value is
// negative or past its Max constant.
func RecursiveEdge(s, t, i int) EdgeLabel {
	if s < 0 || s > MaxEdgeIndex || t < 0 || t > MaxEdgeOffset || i < 0 || i > MaxEdgeChild {
		panic(fmt.Sprintf("core: edge (%d,%d,%d) does not fit an edge label", s, t, i))
	}
	return EdgeLabel{i: uint32(i), ks: uint16(s), t: recursiveFlag | uint16(t)}
}

// Recursive reports whether the edge is in the (s, t, i) form.
func (e EdgeLabel) Recursive() bool { return e.t&recursiveFlag != 0 }

// K is the production index of a non-recursive edge; S reads the same field.
func (e EdgeLabel) K() int { return int(e.ks) }

// S is the cycle index of a recursive edge.
func (e EdgeLabel) S() int { return int(e.ks) }

// T is the starting cycle edge of a recursive edge, 0 otherwise.
func (e EdgeLabel) T() int { return int(e.t &^ recursiveFlag) }

// I is the child position (1-based) of either form.
func (e EdgeLabel) I() int { return int(e.i) }

// String renders the label as "(k,i)" or "(s,t,i)".
func (e EdgeLabel) String() string {
	if e.Recursive() {
		return fmt.Sprintf("(%d,%d,%d)", e.S(), e.T(), e.I())
	}
	return fmt.Sprintf("(%d,%d)", e.K(), e.I())
}

// PortLabel is the label of an input or output port of the run: the sequence
// of edge labels on the path from the root of the compressed parse tree to
// the node at which the port was first created, followed by the port index at
// that node (Section 4.2.2). The zero PortLabel is absent: the side of a data
// label that has no port. A port label read from a run labeler also names its
// owner, the instance at that node, and its Path aliases the labeler's path
// arena: callers must not write to it.
type PortLabel struct {
	Path  []EdgeLabel
	Port  int32
	owner int32 // 0: absent; -1: owner unknown; otherwise 1 + the owner
}

// NewPortLabel builds a present port label with no known owner, as the
// codec decodes one.
func NewPortLabel(path []EdgeLabel, port int32) PortLabel {
	return PortLabel{Path: path, Port: port, owner: -1}
}

// Present reports whether the label names a port.
func (p PortLabel) Present() bool { return p.owner != 0 }

// Owner returns the instance the port belongs to, or -1 when the label is
// absent or was not read from a run labeler.
func (p PortLabel) Owner() int32 { return max(p.owner, 0) - 1 }

// String renders the label as "{(1,3),(1,1,5),2}", or "-" when absent.
func (p PortLabel) String() string {
	if !p.Present() {
		return "-"
	}
	parts := make([]string, 0, len(p.Path)+1)
	for _, e := range p.Path {
		parts = append(parts, e.String())
	}
	parts = append(parts, fmt.Sprintf("%d", p.Port))
	return "{" + strings.Join(parts, ",") + "}"
}

// DataLabel is the label φr(d) of a data item d = (o, i): the pair of the
// producing output port's label and the consuming input port's label. Initial
// inputs of the run have no Out port; final outputs have no In port.
type DataLabel struct {
	Out PortLabel
	In  PortLabel
}

// IsInitialInput reports whether the label belongs to an initial input of the
// run (no producing port).
func (d DataLabel) IsInitialInput() bool { return !d.Out.Present() && d.In.Present() }

// IsFinalOutput reports whether the label belongs to a final output of the
// run (no consuming port).
func (d DataLabel) IsFinalOutput() bool { return d.Out.Present() && !d.In.Present() }

// String renders the label as "(out, in)".
func (d DataLabel) String() string {
	return fmt.Sprintf("(%s, %s)", d.Out.String(), d.In.String())
}

// commonPrefixLen returns the number of leading edge labels shared by the two
// paths; the codec factors this prefix out (Section 4.2.2).
func commonPrefixLen(a, b []EdgeLabel) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// comparePaths orders paths lexicographically, edge by edge, with a prefix
// before its extensions. The order of two edges is that of their packed
// fields, which is arbitrary but total; all the scans need is that the paths
// through one tree node form a contiguous run.
func comparePaths(a, b []EdgeLabel) int {
	if n := commonPrefixLen(a, b); n < len(a) && n < len(b) {
		return cmp.Compare(a[n].packed(), b[n].packed())
	}
	return cmp.Compare(len(a), len(b))
}

// packed is the edge's fields as one word, ordered t, ks, i.
func (e EdgeLabel) packed() uint64 { return uint64(e.t)<<48 | uint64(e.ks)<<32 | uint64(e.i) }
