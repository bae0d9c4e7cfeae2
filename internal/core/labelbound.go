package core

import "math"

// labelBytesBound bounds from above, from the specification's declared port
// counts alone, the bytes LabelView allocates for the label's view and
// variant, short of the recursion caches' power tables (FindPeriod caps
// those itself): λ*′ and the port closure of every included production (the
// safety analysis), the materialized I, O and Z matrices with their
// production's table entry, and the prefix products of every recursion
// cache. It needs only the label's view and included productions, so it
// runs before the safety analysis. The sums are float64 so that forged port
// counts cannot overflow them. Every packed word is counted at 10 bytes,
// covering allocator size classes and slice growth.
func (vl *ViewLabel) labelBytesBound() float64 {
	g := vl.scheme.Spec.Grammar
	words := func(cols float64) float64 { return math.Ceil(cols / 64) }
	// mat bounds one r x c matrix: its header and its packed words.
	mat := func(r, c float64) float64 { return 64 + 10*r*words(c) }

	total := float64(4096) // the label's own slices and the outer chain tables
	for name := range vl.view.ReachableModules() {
		m := g.Modules[name]
		// λ′'s copy or the induced matrix in λ*′, and λ*(S).
		total += 2 * mat(float64(m.In), float64(m.Out))
	}
	for k, inc := range vl.included {
		if !inc {
			continue
		}
		p := g.Productions[k-1]
		lhs := g.Modules[p.LHS]
		nodes, edges := float64(len(p.RHS.Nodes)), float64(len(p.RHS.Edges))
		var ports, depEdges, wordsIn, wordsOut, sumOut float64
		for _, name := range p.RHS.Nodes {
			in, out := float64(g.Modules[name].In), float64(g.Modules[name].Out)
			ports += in + out
			depEdges += in * out
			wordsIn += words(in)
			wordsOut += words(out)
			sumOut += out
		}
		// The port closure: one reachability row per port, one adjacency
		// entry per dependency or data edge (five words each, for append
		// growth), and per-port and per-node bookkeeping.
		total += 10*ports*words(ports) + 40*(depEdges+edges) + 128*(ports+nodes+edges)
		if vl.variant != VariantSpaceEfficient {
			// I(k, i), O(k, i) and Z(k, i, j) for i < j: their words, a
			// matrix header and a table slot for each (two per node, fewer
			// than one per node pair), and the production's table entry.
			total += 10*(float64(lhs.In)*wordsIn+float64(lhs.Out)*wordsOut+sumOut*wordsIn) + 128*nodes + 64*nodes*nodes + 64
		}
	}
	if vl.variant == VariantQueryEfficient {
		for _, c := range vl.scheme.Cycles {
			if !vl.cycleIncluded(c) {
				continue
			}
			l := float64(c.Len())
			var sumIn, wIn, sumOut, wOut float64
			for _, name := range c.Modules {
				in, out := float64(g.Modules[name].In), float64(g.Modules[name].Out)
				sumIn += in
				wIn += words(in)
				sumOut += out
				wOut += words(out)
			}
			// Per offset and side: l+1 prefix products (the rows of one
			// cycle module times the columns of each, the first and last
			// twice), FindPeriod's two working matrices and the chain's
			// bookkeeping.
			total += 128*l*(l+8) + 40*(sumIn*wIn+sumOut*wOut)
		}
	}
	return total
}
