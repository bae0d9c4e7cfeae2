package core

import (
	"cmp"
	"slices"

	"repro/internal/boolmat"
)

// ItemIndex is the row-oriented view of one pinned item universe: every data
// label of items 1..n, grouped by the instance that owns its ports. It is
// what turns the point decoder into a set scanner — the decoding matrix of
// Algorithm 2 depends only on the two labels' paths, and a port's path is
// its owner instance's, so all items sharing an owner are answered by one
// matrix and one bitset row/column extraction instead of one decode each.
// Each instance has its own tree node, so keying on instances loses no
// sharing that keying on paths would find.
//
// An ItemIndex is immutable once published and safe for concurrent use; it
// holds no per-view state (visibility is cached per plan, see PlanCache).
// Item IDs are 1-based, matching runs and live prefixes, so the bitset rows
// the scans produce are 1×(n+1) with bit 0 permanently clear. The index
// copies no label: it resolves items through its label function.
//
// Indexes form lineages: Extend publishes the index of a longer prefix of
// the same run by grouping only the new items, so the index of epoch e+1
// shares its tables with the one of epoch e. Sharing is safe because the
// lineage's builder is the only writer: an index reads its tables within
// the lengths they had when it was published, the builder only appends past
// them, and an instance's path entry is written once, before any item naming
// it is published. An owner whose items span two extensions gets two groups;
// scans answer the same either way.
type ItemIndex struct {
	epoch uint64
	n     int
	label func(itemID int) (DataLabel, bool) // resolves items 1..n
	indexTables
	initialsRow *boolmat.Matrix // 1×(n+1) row of the initial-input item IDs
	b           *indexBuilder   // the lineage's builder; b.tip == idx while idx is extendable
}

// indexTables are what an index reads besides its labels.
type indexTables struct {
	// paths[inst] is the instance's path, nil when no item names it.
	paths [][]EdgeLabel

	// src groups the intermediate items (Out and In both present) by the
	// owner of their producing port — the d1 candidates of a Deps scan. dst
	// groups the same items by the owner of their consuming port — the d2
	// candidates of a RevDeps scan. initials and finals hold the boundary
	// items (no producing / no consuming port), which the decoder treats by
	// dedicated cases rather than by path.
	src, dst         groupTable
	initials, finals []member
}

// indexBuilder is the single writer of one index lineage and holds its
// uncapped tables. Callers serialize Extend per lineage (fvl's sessionIndex
// does so under its mutex).
type indexBuilder struct {
	tip *ItemIndex // the last published index, the only one Extend grows
	indexTables
}

// member is one item's slot in a scan group: the port index that selects its
// bit in the group's decode matrix, and the owner of its other port, whose
// visibility must also hold for the item to be answerable.
type member struct {
	item    int32
	port    int32
	visNode int32 // -1 when the other port is absent
}

// groupTable holds one side's scan groups: group i is owner groups[i].node
// and the members from groups[i].start to the next group's start.
type groupTable struct {
	members []member
	groups  []groupStart
}

type groupStart struct {
	node, start int32
}

// group returns group i's owner and members.
func (t *groupTable) group(i int) (int32, []member) {
	end := int32(len(t.members))
	if i+1 < len(t.groups) {
		end = t.groups[i+1].start
	}
	return t.groups[i].node, t.members[t.groups[i].start:end]
}

// grouped is a new member and the owner it is grouped by.
type grouped struct {
	node int32
	mb   member
}

// add appends one extension's members as groups, one per owner.
func (t *groupTable) add(batch []grouped) {
	slices.SortFunc(batch, func(a, b grouped) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.mb.item, b.mb.item))
	})
	for i, g := range batch {
		if i == 0 || g.node != batch[i-1].node {
			t.groups = append(t.groups, groupStart{node: g.node, start: int32(len(t.members))})
		}
		t.members = append(t.members, g.mb)
	}
}

// BuildItemIndex indexes the labels of items 1..n, resolved through label,
// into a new ItemIndex lineage. label may report holes — unresolved IDs
// simply never appear in any answer — and must keep resolving items 1..n
// while the index is used, as a run labeler and a live prefix do. A label
// with a port of unknown owner (a decoded one) is a hole too. The epoch
// tags the universe the index was built from: a live prefix's epoch, or 0
// for a completed run.
func BuildItemIndex(epoch uint64, n int, label func(itemID int) (DataLabel, bool)) *ItemIndex {
	return (*ItemIndex)(nil).Extend(epoch, n, label)
}

// Extend returns the index of items 1..n at the given epoch, grouping only
// the items past idx.Items() when idx is the tip of its lineage (the last
// index Extend published from it) and n >= idx.Items(). The caller promises
// that label resolves items 1..idx.Items() exactly as it did when idx was
// built, which holds for the prefixes of one live run: labels are write-once
// over contiguous item IDs. A nil or non-tip receiver, or a smaller n,
// starts a new lineage from empty and leaves idx's own lineage untouched.
//
// idx itself stays valid and unchanged, so readers may keep querying it
// while Extend runs; calls that extend the same lineage must not overlap.
func (idx *ItemIndex) Extend(epoch uint64, n int, label func(itemID int) (DataLabel, bool)) *ItemIndex {
	n = max(n, 0)
	b, from := &indexBuilder{}, 1
	if idx != nil && idx.b.tip == idx && n >= idx.n {
		b, from = idx.b, idx.n+1
	}
	var src, dst []grouped
	for id := from; id <= n; id++ {
		d, ok := label(id)
		if !ok || !indexable(d) {
			continue
		}
		out, in := b.see(d.Out), b.see(d.In)
		switch {
		case out < 0:
			b.initials = append(b.initials, member{item: int32(id), port: d.In.Port, visNode: in})
		case in < 0:
			b.finals = append(b.finals, member{item: int32(id), port: d.Out.Port, visNode: out})
		default:
			src = append(src, grouped{out, member{item: int32(id), port: d.Out.Port, visNode: in}})
			dst = append(dst, grouped{in, member{item: int32(id), port: d.In.Port, visNode: out}})
		}
	}
	b.src.add(src)
	b.dst.add(dst)
	next := &ItemIndex{epoch: epoch, n: n, label: label, indexTables: b.indexTables, b: b}
	next.initialsRow = boolmat.New(1, n+1)
	for _, mb := range next.initials {
		next.initialsRow.Set(0, int(mb.item), true)
	}
	b.tip = next
	return next
}

// indexable reports whether a label has a port and names its ports' owners.
func indexable(d DataLabel) bool {
	return (d.Out.Present() || d.In.Present()) && d.Out.owner >= 0 && d.In.owner >= 0
}

// see records the path of a port's owner on first sight and returns the
// owner, or -1 for an absent port.
func (b *indexBuilder) see(p PortLabel) int32 {
	o := p.Owner()
	if o < 0 {
		return -1
	}
	if int(o) >= len(b.paths) {
		b.paths = append(b.paths, make([][]EdgeLabel, int(o)+1-len(b.paths))...)
	}
	if b.paths[o] == nil {
		path := p.Path[:len(p.Path):len(p.Path)]
		if path == nil {
			// nil marks an instance not seen yet.
			path = []EdgeLabel{}
		}
		b.paths[o] = path
	}
	return o
}

// Epoch returns the epoch of the pinned universe the index was built from.
func (idx *ItemIndex) Epoch() uint64 { return idx.epoch }

// Items returns n, the size of the item-ID universe (IDs are 1..n).
func (idx *ItemIndex) Items() int { return idx.n }

// Has reports whether the index holds a label for the item ID.
func (idx *ItemIndex) Has(itemID int) bool {
	_, ok := idx.resolve(itemID)
	return ok
}

// InitialsRow returns the bitset row of the initial-input item IDs (the
// candidates an Explain query projects onto). The returned matrix is shared
// and must be treated as read-only.
func (idx *ItemIndex) InitialsRow() *boolmat.Matrix { return idx.initialsRow }

// resolve returns the label of an item the index holds.
func (idx *ItemIndex) resolve(itemID int) (DataLabel, bool) {
	if itemID < 1 || itemID > idx.n {
		return DataLabel{}, false
	}
	d, ok := idx.label(itemID)
	return d, ok && indexable(d)
}

// side returns the scan groups of the producing side (outputs) or the
// consuming side.
func (idx *ItemIndex) side(outputs bool) *groupTable {
	if outputs {
		return &idx.src
	}
	return &idx.dst
}

// path returns the path of an instance the index's items name.
func (idx *ItemIndex) path(node int32) []EdgeLabel { return idx.paths[node] }
