package core

import (
	"slices"

	"repro/internal/boolmat"
)

// ItemIndex is the row-oriented view of one pinned item universe: every data
// label of items 1..n, grouped by the compressed-parse-tree node its port
// labels point at. It is what turns the point decoder into a set scanner —
// the decoding matrix of Algorithm 2 depends only on the two labels' paths,
// so all items sharing a node are answered by one matrix and one bitset
// row/column extraction instead of one decode each.
//
// An ItemIndex is immutable once published and safe for concurrent use; it
// holds no per-view state (visibility is cached per plan, see PlanCache).
// Item IDs are 1-based, matching runs and live prefixes, so the bitset rows
// the scans produce are 1×(n+1) with bit 0 permanently clear.
//
// Indexes form lineages: Extend publishes the index of a longer prefix of
// the same run by interning only the new items, so the index of epoch e+1
// shares its trie, items and member slices with the one of epoch e. Sharing
// is safe because the lineage's builder is the only writer and only ever
// writes past the lengths every published index was cut at: items and nodes
// are published length-capped, each index owns its group headers, and new
// members land past the end of every older header's slice. Groups are
// ordered by the first appearance of their node in item order, which is
// deterministic and independent of where the epochs were cut.
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

	b *indexBuilder // the lineage's builder; b.tip == idx while idx is extendable
}

// indexBuilder is the single writer of one index lineage. It owns the
// uncapped backing arrays the lineage's indexes are cut from and the path
// trie's children maps, which no reader touches. Extend is its only entry
// point, and callers serialize Extend per lineage (fvl's sessionIndex does
// so under its mutex).
type indexBuilder struct {
	tip   *ItemIndex // the last published index, the only one Extend grows
	items []itemRef
	nodes []indexNode

	// groupOf maps a node ID to 1 + its group's position in the tip's
	// srcGroups (side 0) or dstGroups (side 1); 0 means no group yet.
	groupOf [2][]int32
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
// into a new ItemIndex lineage. The epoch tags the universe the index was
// built from: a live prefix's epoch, or 0 for a completed run.
func BuildItemIndex(epoch uint64, n int, label func(itemID int) (*DataLabel, bool)) *ItemIndex {
	return (*ItemIndex)(nil).Extend(epoch, n, label)
}

// Extend returns the index of items 1..n at the given epoch, interning only
// the items past idx.Items() when idx is the tip of its lineage (the last
// index Extend published from it) and n >= idx.Items(). The caller promises
// that label resolves items 1..idx.Items() exactly as it did when idx was
// built, which holds for the prefixes of one live run: labels are write-once
// over contiguous item IDs. A nil or non-tip receiver, or a smaller n,
// starts a new lineage from empty and leaves idx's own lineage untouched.
//
// idx itself stays valid and unchanged, so readers may keep querying it
// while Extend runs; calls that extend the same lineage must not overlap.
func (idx *ItemIndex) Extend(epoch uint64, n int, label func(itemID int) (*DataLabel, bool)) *ItemIndex {
	n = max(n, 0)
	next := &ItemIndex{epoch: epoch, n: n}
	if idx != nil && idx.b.tip == idx && n >= idx.n {
		next.b = idx.b
		next.srcGroups = slices.Clone(idx.srcGroups)
		next.dstGroups = slices.Clone(idx.dstGroups)
		next.initials, next.finals = idx.initials, idx.finals
	} else {
		next.b = &indexBuilder{items: make([]itemRef, 0, n), nodes: []indexNode{{}}, groupOf: [2][]int32{{0}, {0}}}
	}
	b := next.b
	for id := len(b.items) + 1; id <= n; id++ {
		d, ok := label(id)
		if !ok || d == nil || (d.Out == nil && d.In == nil) {
			b.items = append(b.items, itemRef{})
			continue
		}
		ref := itemRef{ok: true, out: -1, in: -1}
		if d.Out != nil {
			ref.out = b.intern(d.Out.Path)
			ref.outPort = int32(d.Out.Port)
		}
		if d.In != nil {
			ref.in = b.intern(d.In.Path)
			ref.inPort = int32(d.In.Port)
		}
		b.items = append(b.items, ref)
		switch {
		case ref.out < 0:
			next.initials = append(next.initials, member{item: int32(id), port: ref.inPort, visNode: ref.in})
		case ref.in < 0:
			next.finals = append(next.finals, member{item: int32(id), port: ref.outPort, visNode: ref.out})
		default:
			next.srcGroups = b.addMember(0, next.srcGroups, ref.out, member{item: int32(id), port: ref.outPort, visNode: ref.in})
			next.dstGroups = b.addMember(1, next.dstGroups, ref.in, member{item: int32(id), port: ref.inPort, visNode: ref.out})
		}
	}
	next.items = b.items[:n:n]
	next.nodes = b.nodes[:len(b.nodes):len(b.nodes)]
	next.initialsRow = boolmat.New(1, n+1)
	for _, mb := range next.initials {
		next.initialsRow.Set(0, int(mb.item), true)
	}
	b.tip = next
	return next
}

// addMember appends mb to node's group on one side, opening the group at
// the end of groups on the node's first member.
func (b *indexBuilder) addMember(side int, groups []portGroup, node int32, mb member) []portGroup {
	pos := b.groupOf[side][node]
	if pos == 0 {
		groups = append(groups, portGroup{node: node})
		pos = int32(len(groups))
		b.groupOf[side][node] = pos
	}
	groups[pos-1].members = append(groups[pos-1].members, mb)
	return groups
}

// intern walks (extending as needed) the path trie and returns the node ID
// of the path. Items of one run massively share path prefixes, so the trie
// stays small and every distinct tree node is stored once.
func (b *indexBuilder) intern(path []EdgeLabel) int32 {
	cur := int32(0)
	for i, e := range path {
		child, ok := b.nodes[cur].children[e]
		if !ok {
			child = int32(len(b.nodes))
			b.nodes = append(b.nodes, indexNode{path: path[:i+1]})
			b.groupOf[0] = append(b.groupOf[0], 0)
			b.groupOf[1] = append(b.groupOf[1], 0)
			if b.nodes[cur].children == nil {
				b.nodes[cur].children = map[EdgeLabel]int32{}
			}
			b.nodes[cur].children[e] = child
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

// end expands one interned port side into the point decoder's view of it.
func (idx *ItemIndex) end(node, port int32) portEnd {
	if node < 0 {
		return noPort
	}
	return portEnd{ok: true, path: idx.path(node), port: int(port), node: node}
}
