package core

import (
	"repro/internal/boolmat"
)

// ItemIndex is the row-oriented view of one pinned item universe: every data
// label of items 1..n, grouped by the compressed-parse-tree node its port
// labels point at. It is what turns the point decoder into a set scanner —
// the decoding matrix of Algorithm 2 depends only on the two labels' paths,
// so all items sharing a node are answered by one matrix and one bitset
// row/column extraction instead of one decode each.
//
// An ItemIndex is immutable after BuildItemIndex and safe for concurrent
// use; it holds no per-view state (visibility is cached per plan, see
// PlanCache). Item IDs are 1-based, matching runs and live prefixes, so the
// bitset rows the scans produce are 1×(n+1) with bit 0 permanently clear.
type ItemIndex struct {
	epoch uint64
	n     int
	items []itemRef   // items[id-1]
	nodes []indexNode // interned paths; node 0 is the root (empty path)

	// srcGroups groups the intermediate items (Out and In both present) by
	// the node of their producing port — the d1 candidates of a Deps scan.
	// dstGroups groups the same items by the node of their consuming port —
	// the d2 candidates of a RevDeps scan. initials and finals hold the
	// boundary items (no producing / no consuming port), which the decoder
	// treats by dedicated cases rather than by path.
	srcGroups []portGroup
	dstGroups []portGroup
	initials  []member
	finals    []member

	initialsRow *boolmat.Matrix // 1×(n+1) row of the initial-input item IDs
}

// itemRef is the interned form of one data label: node IDs instead of paths,
// ports flattened. A node of -1 encodes a nil port label.
type itemRef struct {
	ok      bool
	out, in int32
	outPort int32
	inPort  int32
}

type indexNode struct {
	path     []EdgeLabel
	children map[EdgeLabel]int32
}

// member is one item's slot in a scan group: the port index that selects its
// bit in the group's decode matrix, and the node of its other port, whose
// visibility must also hold for the item to be answerable.
type member struct {
	item    int32
	port    int32
	visNode int32 // -1 when the other port is absent
}

type portGroup struct {
	node    int32
	members []member
}

// BuildItemIndex interns the labels of items 1..n (resolved through label,
// which may report holes — unresolved IDs simply never appear in any answer)
// into an ItemIndex. The epoch tags the universe the index was built from: a
// live prefix's epoch, or 0 for a completed run.
func BuildItemIndex(epoch uint64, n int, label func(itemID int) (*DataLabel, bool)) *ItemIndex {
	if n < 0 {
		n = 0
	}
	idx := &ItemIndex{
		epoch: epoch,
		n:     n,
		items: make([]itemRef, n),
		nodes: []indexNode{{}},
	}
	srcByNode := map[int32][]member{}
	dstByNode := map[int32][]member{}
	for id := 1; id <= n; id++ {
		d, ok := label(id)
		if !ok || d == nil || (d.Out == nil && d.In == nil) {
			continue
		}
		ref := itemRef{ok: true, out: -1, in: -1}
		if d.Out != nil {
			ref.out = idx.intern(d.Out.Path)
			ref.outPort = int32(d.Out.Port)
		}
		if d.In != nil {
			ref.in = idx.intern(d.In.Path)
			ref.inPort = int32(d.In.Port)
		}
		idx.items[id-1] = ref
		switch {
		case ref.out < 0:
			idx.initials = append(idx.initials, member{item: int32(id), port: ref.inPort, visNode: ref.in})
		case ref.in < 0:
			idx.finals = append(idx.finals, member{item: int32(id), port: ref.outPort, visNode: ref.out})
		default:
			srcByNode[ref.out] = append(srcByNode[ref.out], member{item: int32(id), port: ref.outPort, visNode: ref.in})
			dstByNode[ref.in] = append(dstByNode[ref.in], member{item: int32(id), port: ref.inPort, visNode: ref.out})
		}
	}
	// Flatten the group maps in node-ID order so scans are deterministic.
	for node := int32(0); int(node) < len(idx.nodes); node++ {
		if ms, ok := srcByNode[node]; ok {
			idx.srcGroups = append(idx.srcGroups, portGroup{node: node, members: ms})
		}
		if ms, ok := dstByNode[node]; ok {
			idx.dstGroups = append(idx.dstGroups, portGroup{node: node, members: ms})
		}
	}
	idx.initialsRow = boolmat.New(1, n+1)
	for _, mb := range idx.initials {
		idx.initialsRow.Set(0, int(mb.item), true)
	}
	return idx
}

// intern walks (extending as needed) the path trie and returns the node ID
// of the path. Items of one run massively share path prefixes, so the trie
// stays small and every distinct tree node is stored once.
func (idx *ItemIndex) intern(path []EdgeLabel) int32 {
	cur := int32(0)
	for i, e := range path {
		child, ok := idx.nodes[cur].children[e]
		if !ok {
			child = int32(len(idx.nodes))
			idx.nodes = append(idx.nodes, indexNode{path: path[:i+1]})
			if idx.nodes[cur].children == nil {
				idx.nodes[cur].children = map[EdgeLabel]int32{}
			}
			idx.nodes[cur].children[e] = child
		}
		cur = child
	}
	return cur
}

// Epoch returns the epoch of the pinned universe the index was built from.
func (idx *ItemIndex) Epoch() uint64 { return idx.epoch }

// Items returns n, the size of the item-ID universe (IDs are 1..n).
func (idx *ItemIndex) Items() int { return idx.n }

// Has reports whether the index holds a label for the item ID.
func (idx *ItemIndex) Has(itemID int) bool {
	return itemID >= 1 && itemID <= idx.n && idx.items[itemID-1].ok
}

// InitialsRow returns the bitset row of the initial-input item IDs (the
// candidates an Explain query projects onto). The returned matrix is shared
// and must be treated as read-only.
func (idx *ItemIndex) InitialsRow() *boolmat.Matrix { return idx.initialsRow }

func (idx *ItemIndex) ref(itemID int) (itemRef, bool) {
	if itemID < 1 || itemID > idx.n {
		return itemRef{}, false
	}
	r := idx.items[itemID-1]
	return r, r.ok
}

func (idx *ItemIndex) path(node int32) []EdgeLabel { return idx.nodes[node].path }
