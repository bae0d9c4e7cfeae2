// Package core impersonates repro/internal/core for the immutafter fixture:
// the analyzer keys on the import path, so the fixture supplies a miniature
// ViewLabel and data/port labels with the same mutation surfaces as the
// real ones.
package core

type recChain struct {
	prefixes []int
}

// ViewLabel mirrors the real label's state shape: scalar fields, maps, and
// pointer-reachable recursion caches.
type ViewLabel struct {
	start    int
	included map[int]bool
	inRec    map[int]*recChain
	rows     []int
}

// NewViewLabel is the construction path; its writes are the point.
//
//fvlvet:viewlabel-ctor
func NewViewLabel() *ViewLabel {
	vl := &ViewLabel{included: map[int]bool{}, inRec: map[int]*recChain{}}
	vl.start = 7
	vl.included[1] = true
	vl.inRec[1] = &recChain{prefixes: []int{1}}
	return vl
}

func (vl *ViewLabel) Reset() {
	vl.start = 0           // want `write to core\.ViewLabel state outside the construction path`
	vl.included[2] = true  // want `write to core\.ViewLabel state outside the construction path`
	delete(vl.included, 1) // want `write to core\.ViewLabel state outside the construction path`
}

func (vl *ViewLabel) Shrink() {
	vl.inRec[1].prefixes = nil // want `write to core\.recChain state outside the construction path`
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
	c.included[3] = true   // want `write to core\.ViewLabel state outside the construction path`
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

// PortLabel and DataLabel mirror the real run labels: a port label's Path
// is shared by every port label created at one instance.
type PortLabel struct {
	Path []EdgeLabel
	Port int
}

type DataLabel struct {
	Out *PortLabel
	In  *PortLabel
}

// NewDataLabel builds labels by composite literal only: no diagnostic.
func NewDataLabel(path []EdgeLabel, out, in int) *DataLabel {
	return &DataLabel{
		Out: &PortLabel{Path: path[:len(path):len(path)], Port: out},
		In:  &PortLabel{Path: path[:len(path):len(path)], Port: in},
	}
}

// Relabel writes through a shared path and into assigned labels.
func Relabel(d *DataLabel, p *PortLabel) {
	p.Path[0] = EdgeLabel{K: 1, I: 1} // want `write to core\.PortLabel state`
	p.Path[0].I++                     // want `write to core\.PortLabel state`
	d.In.Path[1].K = 2                // want `write to core\.PortLabel state`
	p.Port = 3                        // want `write to core\.PortLabel state`
	d.Out = p                         // want `write to core\.DataLabel state`
}

// Overwrite stores whole labels through pointers and copies into a shared
// path.
func Overwrite(d *DataLabel, p *PortLabel, src []EdgeLabel) {
	copy(p.Path, src) // want `write to core\.PortLabel state`
	*p = PortLabel{}  // want `write to core\.PortLabel state`
	*d = DataLabel{}  // want `write to core\.DataLabel state`
	*d.In = *p        // want `write to core\.PortLabel state`
}

// NotACtorForLabels: the view-label directive sanctions view-label writes
// only.
//
//fvlvet:viewlabel-ctor
func NotACtorForLabels(p *PortLabel) {
	p.Path = nil // want `write to core\.PortLabel state`
}

// LocalCopy writes a field of a private by-value copy, which is allowed,
// but the copy still shares its Path array with the original.
func LocalCopy(p *PortLabel) PortLabel {
	c := *p
	c.Port = 4
	c.Path[0].K = 5 // want `write to core\.PortLabel state`
	return c
}
