// Package core impersonates repro/internal/core for the immutafter fixture:
// the analyzer keys on the import path, so the fixture supplies a miniature
// ViewLabel, run labeler table and data/port labels with the same mutation
// surfaces as the real ones.
package core

type recChain struct {
	prefixes []int
}

type prodEdges struct {
	in, out []int
}

// ViewLabel mirrors the real label's state shape: scalar fields, a map, and
// dense tables of pointer-reachable edge matrices and recursion caches.
type ViewLabel struct {
	start  int
	full   map[string]int
	edges  []*prodEdges
	chains [2][][]*recChain
	rows   []int
}

// NewViewLabel is the construction path; its writes are the point.
//
//fvlvet:viewlabel-ctor
func NewViewLabel() *ViewLabel {
	vl := &ViewLabel{full: map[string]int{}, edges: make([]*prodEdges, 2)}
	vl.start = 7
	vl.full["A"] = 1
	vl.edges[1] = newProdEdges(2)
	vl.chains[0] = [][]*recChain{{{prefixes: []int{1}}}}
	return vl
}

// newProdEdges fills locals and returns a new value, so its callers outside
// the construction path write no label state: no diagnostic.
func newProdEdges(n int) *prodEdges {
	in, out := make([]int, n), make([]int, n)
	for i := range in {
		in[i], out[i] = i, i
	}
	return &prodEdges{in: in, out: out}
}

// planLabel mirrors a query plan's tables, which are not label state.
type planLabel struct {
	edges []*prodEdges
}

// fill stores a new prodEdges into a plan slot: no diagnostic.
func (pl *planLabel) fill(k int) {
	slot := &pl.edges[k]
	if *slot == nil {
		*slot = newProdEdges(k)
	}
}

func (vl *ViewLabel) Reset() {
	vl.start = 0         // want `write to core\.ViewLabel state outside the construction path`
	vl.full["B"] = 2     // want `write to core\.ViewLabel state outside the construction path`
	delete(vl.full, "A") // want `write to core\.ViewLabel state outside the construction path`
	vl.edges[1] = nil    // want `write to core\.ViewLabel state outside the construction path`
	vl.chains[1] = nil   // want `write to core\.ViewLabel state outside the construction path`
}

// Shrink writes through the tables' entries, which the label shares with
// every shallow copy.
func (vl *ViewLabel) Shrink() {
	vl.edges[1].out = nil // want `write to core\.prodEdges state outside the construction path`
	vl.edges[1].in[0] = 2 // want `write to core\.prodEdges state outside the construction path`
	pe := vl.edges[1]
	pe.in[1] = 3                       // want `write to core\.prodEdges state outside the construction path`
	vl.chains[0][0][0].prefixes = nil  // want `write to core\.recChain state outside the construction path`
	vl.chains[0][0][0].prefixes[0] = 2 // want `write to core\.recChain state outside the construction path`
}

// Overwrite replaces the whole label through its pointer and copies over its
// rows; both are writes to label state.
func (vl *ViewLabel) Overwrite(rows []int) {
	*vl = ViewLabel{}   // want `write to core\.ViewLabel state outside the construction path`
	copy(vl.rows, rows) // want `write to core\.ViewLabel state outside the construction path`
}

// WithStart clones by value: direct field writes land on the private copy
// (the WithMatrixFree idiom), but writes through the copy's maps still reach
// the shared containers.
func (vl *ViewLabel) WithStart(s int) *ViewLabel {
	c := *vl
	c.start = s
	c.full["C"] = 3        // want `write to core\.ViewLabel state outside the construction path`
	copy(c.rows, []int{s}) // want `write to core\.ViewLabel state outside the construction path`
	return &c
}

// Sanctioned proves the suppression mechanism: the annotated write below
// must produce no diagnostic.
func (vl *ViewLabel) Sanctioned() {
	//lint:ignore immutafter fixture exercises the reviewed-exception escape hatch
	vl.start = 1
}

type EdgeLabel struct {
	K, I int
}

// PortLabel and DataLabel mirror the real labels: values built on read
// from the labeler's table, whose paths alias its path arena.
type PortLabel struct {
	Path []EdgeLabel
	Port int32
}

type DataLabel struct {
	Out PortLabel
	In  PortLabel
}

type itemRecord struct {
	outInst, outPort, inInst, inPort int32
}

// RunLabeler mirrors the real labeler's table: item records and a path
// arena, appended to only by its append path.
type RunLabeler struct {
	items []itemRecord
	edges []EdgeLabel
	ends  []int32
}

// assign is the append path; its writes are the point.
//
//fvlvet:label-append
func (l *RunLabeler) assign(r itemRecord, path []EdgeLabel) {
	l.items = append(l.items, r)
	l.edges = append(l.edges, path...)
	l.ends = append(l.ends, int32(len(l.edges)))
}

// Prefix publishes a length-capped copy by composite literal: no diagnostic.
func (l *RunLabeler) Prefix() RunLabeler {
	return RunLabeler{items: l.items[:len(l.items):len(l.items)], edges: l.edges, ends: l.ends}
}

// Label builds a value on read: no diagnostic.
func (l *RunLabeler) Label(id int) DataLabel {
	r := l.items[id-1]
	return DataLabel{
		Out: PortLabel{Path: l.edges[l.ends[r.outInst]:l.ends[r.outInst+1]], Port: r.outPort},
		In:  PortLabel{Path: l.edges[l.ends[r.inInst]:l.ends[r.inInst+1]], Port: r.inPort},
	}
}

// Reset writes the labeler's table outside the append path.
func (l *RunLabeler) Reset() {
	l.items = nil                // want `write to core\.RunLabeler state outside the labeler's append path`
	l.ends[0] = 1                // want `write to core\.RunLabeler state outside the labeler's append path`
	l.items[0].inPort = 2        // want `write to core\.itemRecord state outside the labeler's append path`
	copy(l.edges, []EdgeLabel{}) // want `write to core\.RunLabeler state outside the labeler's append path`
}

// TamperPrefix writes through a published prefix, which shares the table.
func TamperPrefix(l *RunLabeler) {
	p := l.Prefix()
	p.items = nil                // a private copy of the header: allowed
	p.items[0] = itemRecord{}    // want `write to core\.RunLabeler state outside the labeler's append path`
	p.items[1].outPort = 3       // want `write to core\.itemRecord state outside the labeler's append path`
	p.edges[0] = EdgeLabel{K: 1} // want `write to core\.RunLabeler state outside the labeler's append path`
}

// TamperPath writes through a label's path, a slice of the path arena.
func TamperPath(l *RunLabeler) {
	d := l.Label(1)
	d.In.Path[0] = EdgeLabel{K: 1, I: 1} // want `write to core\.PortLabel state`
	d.Out.Path[0].I++                    // want `write to core\.PortLabel state`
	copy(d.In.Path, []EdgeLabel{})       // want `write to core\.PortLabel state`
	d.In.Port = 4                        // a field of a private value: allowed
}

// TamperArena writes through slices that alias the path arena, however
// they were reached.
func TamperArena(l *RunLabeler) {
	path := l.edges[l.ends[0]:l.ends[1]]
	path[0] = EdgeLabel{K: 1} // want `write into a \[\]core\.EdgeLabel outside the labeler's append path`
	path[0].I = 2             // want `write into a \[\]core\.EdgeLabel outside the labeler's append path`
	copy(path, []EdgeLabel{}) // want `write into a \[\]core\.EdgeLabel outside the labeler's append path`
	fresh := []EdgeLabel{{K: 1}}
	fresh = append(fresh, path...) // a new path: allowed
	_ = fresh
}

// Overwrite stores whole labels through pointers.
func Overwrite(d *DataLabel, p *PortLabel) {
	*p = PortLabel{} // want `write to core\.PortLabel state`
	*d = DataLabel{} // want `write to core\.DataLabel state`
	d.Out = *p       // want `write to core\.DataLabel state`
}

// NotACtorForLabels: the view-label directive sanctions view-label writes
// only.
//
//fvlvet:viewlabel-ctor
func NotACtorForLabels(l *RunLabeler, p *PortLabel) {
	p.Path = nil  // want `write to core\.PortLabel state`
	l.edges = nil // want `write to core\.RunLabeler state outside the labeler's append path`
}

// LocalCopy writes a field of a private by-value copy, which is allowed,
// but the copy still shares its Path array with the original.
func LocalCopy(p PortLabel) PortLabel {
	c := p
	c.Port = 4
	c.Path[0].K = 5 // want `write to core\.PortLabel state`
	return c
}

type member struct {
	item, port int32
}

type groupStart struct {
	node, start int32
}

type groupTable struct {
	members []member
	groups  []groupStart
	order   []int32
}

type indexTables struct {
	paths    [][]EdgeLabel
	src, dst groupTable
}

type indexBuilder struct {
	tip *ItemIndex
	indexTables
}

// ItemIndex mirrors the real index: tables shared with its lineage's
// builder, which extends them for the next index.
type ItemIndex struct {
	n int
	indexTables
	b *indexBuilder
}

// add is the extend path: it appends past the published lengths and
// merges into a fresh order; its writes are the point.
//
//fvlvet:index-extend
func (t *groupTable) add(node int32, mb member) {
	t.groups = append(t.groups, groupStart{node: node, start: int32(len(t.members))})
	t.members = append(t.members, mb)
	order := make([]int32, 0, len(t.order)+1)
	t.order = append(append(order, t.order...), int32(len(t.groups)-1))
}

// Extend publishes the next index of the lineage: allowed.
//
//fvlvet:index-extend
func (idx *ItemIndex) Extend(n int) *ItemIndex {
	idx.b.src.add(int32(n), member{item: int32(n)})
	next := &ItemIndex{n: n, indexTables: idx.b.indexTables, b: idx.b}
	idx.b.tip = next
	return next
}

// Reorder rewrites a published index's order in place, which the
// lineage's other indexes share.
func (idx *ItemIndex) Reorder() {
	idx.src.order[0] = 1 // want `write to core\.groupTable state outside the index's extend path`
	local := idx.src     // a private copy of the table header: allowed
	local.order = nil
}
