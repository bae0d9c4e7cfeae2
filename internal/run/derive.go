package run

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/workflow"
)

// Templates is a specification compiled for derivation: a dense index of its
// modules and one Template per production. A production is compiled on its
// first application, once: a specification may declare modules with more
// ports than any run could bind, and what such a production costs is paid
// only by a step that applies it. Templates is safe for concurrent use, so
// one value serves every derivation of the specification.
type Templates struct {
	spec    *workflow.Specification
	modules []module
	index   map[string]int32
	lhs     []int32 // module index of each production's LHS
	prods   []lazyTemplate
	start   int32
}

type lazyTemplate struct {
	once sync.Once
	t    Template
}

// module is one module of the specification, by dense index.
type module struct {
	name      string
	composite bool
}

// Template is one production compiled for derivation. Applying it creates
// one instance per RHS node, in node order, and one data item per RHS edge,
// in edge order; each edge's item runs from a fresh out-port of its source
// node to a fresh in-port of its target node.
type Template struct {
	LHS   string              // the module the production expands
	Nodes []string            // the module of each RHS node
	Edges []workflow.DataEdge // the internal data edges of the RHS

	nodes []int32 // module index of each RHS node
	// ins[x] and outs[x] are the RHS ports the x-th input and output port of
	// the expanded instance bind to: its initial inputs and final outputs.
	ins, outs []workflow.PortRef
	// err is why the production cannot be applied; every Apply of it fails
	// with this error.
	err error
}

// NewTemplates compiles the specification for derivation.
func NewTemplates(spec *workflow.Specification) *Templates {
	g := spec.Grammar
	t := &Templates{
		spec:    spec,
		index:   make(map[string]int32, len(g.Modules)+1),
		modules: make([]module, 0, len(g.Modules)+1),
		lhs:     make([]int32, len(g.Productions)),
		prods:   make([]lazyTemplate, len(g.Productions)),
	}
	add := func(name string) int32 {
		m, ok := t.index[name]
		if !ok {
			m = int32(len(t.modules))
			t.index[name] = m
			t.modules = append(t.modules, module{name: name})
		}
		return m
	}
	// Only the start module and production nodes can be instantiated; index
	// them in declaration order, so one specification always compiles alike.
	t.start = add(g.Start)
	for k, p := range g.Productions {
		t.lhs[k] = add(p.LHS)
		t.modules[t.lhs[k]].composite = true
		for _, name := range p.RHS.Nodes {
			add(name)
		}
	}
	return t
}

// template returns the template of the 1-based production k.
func (t *Templates) template(k int) *Template {
	p := &t.prods[k-1]
	p.once.Do(func() { p.t = t.compile(k, t.spec.Grammar.Productions[k-1]) })
	return &p.t
}

// compile builds the template of production k. A production that cannot be
// applied keeps the reason as the template's error.
func (t *Templates) compile(k int, p workflow.Production) Template {
	g := t.spec.Grammar
	tp := Template{LHS: p.LHS, Nodes: p.RHS.Nodes, Edges: p.RHS.Edges}
	ins, err := p.RHS.InitialInputs(g)
	if err != nil {
		tp.err = err
		return tp
	}
	outs, err := p.RHS.FinalOutputs(g)
	if err != nil {
		tp.err = err
		return tp
	}
	lhs := g.Modules[p.LHS]
	if len(ins) != lhs.In || len(outs) != lhs.Out {
		tp.err = fmt.Errorf("run: production %d arity mismatch for %q", k, p.LHS)
		return tp
	}
	// Every port of every child must be bound, by the expanded instance's
	// ports or by an internal edge. The grammar's pairwise non-adjacency and
	// arity checks guarantee it; verify to fail loudly on malformed
	// specifications.
	type side struct{ in, out []bool }
	bound := make([]side, len(p.RHS.Nodes))
	tp.nodes = make([]int32, len(p.RHS.Nodes))
	for i, name := range p.RHS.Nodes {
		m := g.Modules[name]
		bound[i] = side{make([]bool, m.In), make([]bool, m.Out)}
		tp.nodes[i] = t.index[name]
	}
	for _, ref := range ins {
		bound[ref.Node].in[ref.Port] = true
	}
	for _, ref := range outs {
		bound[ref.Node].out[ref.Port] = true
	}
	for j, e := range p.RHS.Edges {
		if e.FromNode < 0 || e.FromNode >= len(bound) || e.FromPort < 0 || e.FromPort >= len(bound[e.FromNode].out) ||
			e.ToNode < 0 || e.ToNode >= len(bound) || e.ToPort < 0 || e.ToPort >= len(bound[e.ToNode].in) {
			tp.err = fmt.Errorf("run: data edge %d of production %d names a port its modules lack", j, k)
			return tp
		}
		bound[e.FromNode].out[e.FromPort] = true
		bound[e.ToNode].in[e.ToPort] = true
	}
	for i, b := range bound {
		for port, ok := range b.in {
			if !ok {
				tp.err = fmt.Errorf("run: input port %d of %q left unbound by production %d", port, p.RHS.Nodes[i], k)
				return tp
			}
		}
		for port, ok := range b.out {
			if !ok {
				tp.err = fmt.Errorf("run: output port %d of %q left unbound by production %d", port, p.RHS.Nodes[i], k)
				return tp
			}
		}
	}
	tp.ins, tp.outs = ins, outs
	return tp
}

// Step is one derivation step: the expansion of Instance by production
// Prod. Everything the step created is numbered consecutively in template
// order: RHS node i became instance FirstInstance+i, and RHS edge j became
// data item FirstItem+j, which runs from port FirstPort+2j (out-port
// Edges[j].FromPort of instance FirstInstance+Edges[j].FromNode) to port
// FirstPort+2j+1 (in-port Edges[j].ToPort of instance
// FirstInstance+Edges[j].ToNode). The embedded template is shared and must
// not be modified.
type Step struct {
	Index    int // 1-based step number
	Instance int
	Prod     int

	FirstInstance int
	FirstItem     int
	FirstPort     int

	*Template
}

// Deriver applies productions to a run, keeping only what the next step
// needs: the unexpanded composite instances, each with its module, and the
// next instance, port and item IDs. It checks every step exactly as Run.Apply
// does — Run is a Deriver plus the recorded history — but a caller that
// consumes each Step as it is returned, as a labeler does, never holds the
// run's instances, ports and items, and a completed derivation holds no
// per-instance state at all.
//
// A derivation starts from the unexpanded start module, instance 0. Its
// input ports are port instances 0..In-1 and its output ports In..In+Out-1;
// data items 1..In are the run's initial inputs (item x+1 is consumed by
// input port x) and items In+1..In+Out its final outputs (item In+x+1 is
// produced by output port x).
type Deriver struct {
	t *Templates
	// open and openMod are the unexpanded composite instances and their
	// modules, in increasing ID order: IDs are allocated in increasing
	// order, so appending keeps them sorted.
	open    []int
	openMod []int32
	insts   int // instances created so far: the next instance ID
	ports   int // port instances created so far: the next port ID
	items   int // data items created so far: the last item ID
	steps   int
}

// NewDeriver starts a derivation at the unexpanded start module.
func (t *Templates) NewDeriver() *Deriver {
	d := &Deriver{t: t}
	d.add(t.start)
	start := t.spec.Grammar.Modules[t.spec.Grammar.Start]
	d.ports = start.In + start.Out
	d.items = start.In + start.Out
	return d
}

func (d *Deriver) add(m int32) {
	if d.t.modules[m].composite {
		d.open, d.openMod = append(d.open, d.insts), append(d.openMod, m)
	}
	d.insts++
}

// Apply expands the given unexpanded composite instance with the production
// of the given 1-based index and returns the step. It fails, changing
// nothing, when the instance is unknown, atomic or already expanded, or the
// production does not exist, expands another module or is malformed.
func (d *Deriver) Apply(instanceID, prodIndex int) (Step, error) {
	at, ok := slices.BinarySearch(d.open, instanceID)
	if !ok {
		return Step{}, fmt.Errorf("run: instance %d is not an unexpanded composite instance", instanceID)
	}
	m := d.openMod[at]
	if prodIndex < 1 || prodIndex > len(d.t.prods) {
		return Step{}, fmt.Errorf("run: no production %d", prodIndex)
	}
	if lhs := d.t.lhs[prodIndex-1]; lhs != m {
		return Step{}, fmt.Errorf("run: production %d expands %q, not %q", prodIndex, d.t.modules[lhs].name, d.t.modules[m].name)
	}
	tp := d.t.template(prodIndex)
	if tp.err != nil {
		return Step{}, tp.err
	}
	d.steps++
	s := Step{
		Index: d.steps, Instance: instanceID, Prod: prodIndex,
		FirstInstance: d.insts, FirstItem: d.items + 1, FirstPort: d.ports,
		Template: tp,
	}
	d.open, d.openMod = slices.Delete(d.open, at, at+1), slices.Delete(d.openMod, at, at+1)
	for _, m := range tp.nodes {
		d.add(m)
	}
	d.ports += 2 * len(tp.Edges)
	d.items += len(tp.Edges)
	return s, nil
}

// Frontier returns the IDs of the unexpanded composite instances, in
// increasing order, or nil when there are none.
func (d *Deriver) Frontier() []int {
	if len(d.open) == 0 {
		return nil
	}
	return slices.Clone(d.open)
}

// IsComplete reports whether every composite instance has been expanded.
func (d *Deriver) IsComplete() bool { return len(d.open) == 0 }

// Expandable returns the 1-based indices of the productions that can expand
// the instance, or nil when it is unknown, already expanded or atomic.
func (d *Deriver) Expandable(instanceID int) []int {
	at, ok := slices.BinarySearch(d.open, instanceID)
	if !ok {
		return nil
	}
	return d.t.spec.Grammar.ProductionsFor(d.t.modules[d.openMod[at]].name)
}
