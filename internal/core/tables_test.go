package core

// Table-level differential test of the view label's dense tables: every I, O
// and Z matrix and every recursion chain reads the same from each source the
// resolvers consult (edge and chain), and SizeBits, the Figure 19 measure,
// counts exactly λ*(S) and what the tables hold.

import (
	"testing"

	"repro/internal/boolmat"
	"repro/internal/view"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// bitsOf counts one bit per matrix entry.
func bitsOf(ms ...*boolmat.Matrix) int {
	n := 0
	for _, m := range ms {
		n += m.Rows() * m.Cols()
	}
	return n
}

// sameChain reports whether two recursion chains hold equal prefix products
// and equal periodic powers.
func sameChain(a, b *recChain) bool {
	if len(a.prefixes) != len(b.prefixes) || a.period.Preperiod != b.period.Preperiod ||
		a.period.Period != b.period.Period || len(a.period.Powers) != len(b.period.Powers) {
		return false
	}
	for r, m := range a.prefixes {
		if !m.Equal(b.prefixes[r]) {
			return false
		}
	}
	for q, m := range a.period.Powers {
		if !m.Equal(b.period.Powers[q]) {
			return false
		}
	}
	return true
}

// TestLabelTablesMatchEverySource labels the default view, a random grey-box
// view and, on the paper example, the security view under every variant. For
// every included production the view can derive, every I(k, i), O(k, i) and
// Z(k, i, j) — Z for every node pair, the empty i >= j ones included — must
// read equal to the view's own port closure from four sources: the Default
// label's table, the QueryEfficient label's table, a space-efficient label
// through a plan and through the plan-free closure memo. The tables hold an
// entry for exactly those productions. The query-efficient label's chains
// must equal the ones a plan builds for the default and the space-efficient
// label at every (cycle, offset, side), and SizeBits must equal λ*(S) plus
// the sizes of the closure's matrices and of the plan-built chains. Figure
// 10 is not strictly linear-recursive, so it runs under the basic scheme,
// which has no cycles.
func TestLabelTablesMatchEverySource(t *testing.T) {
	paper, bioaid, figure10 := workloads.PaperExample(), workloads.BioAID(), workloads.Figure10Example()
	security, err := workloads.PaperSecurityView(paper)
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		name  string
		spec  *workflow.Specification
		basic bool
		views []*view.View
	}{
		{"paper", paper, false, []*view.View{view.Default(paper), security, greyView(t, paper, 51)}},
		{"bioaid", bioaid, false, []*view.View{view.Default(bioaid), greyView(t, bioaid, 52)}},
		{"figure10", figure10, true, []*view.View{view.Default(figure10), greyView(t, figure10, 53)}},
	}
	for _, sc := range specs {
		newScheme := NewScheme
		if sc.basic {
			newScheme = NewSchemeBasic
		}
		scheme, err := newScheme(sc.spec)
		if err != nil {
			t.Fatal(err)
		}
		chains := 0
		for _, v := range sc.views {
			var vls [3]*ViewLabel
			for variant := range vls {
				if vls[variant], err = scheme.LabelView(v, Variant(variant)); err != nil {
					t.Fatal(err)
				}
			}
			se, def, qe := vls[VariantSpaceEfficient], vls[VariantDefault], vls[VariantQueryEfficient]
			closures, err := v.Closures()
			if err != nil {
				t.Fatal(err)
			}
			sePlan, defPlan := NewQuerySession(), NewQuerySession()
			sePlan.EnsurePlan(nil)
			defPlan.EnsurePlan(nil)
			sources := []struct {
				name string
				vl   *ViewLabel
				qc   *queryCtx
			}{
				{"default table", def, new(queryCtx)},
				{"query-efficient table", qe, new(queryCtx)},
				{"space-efficient plan", se, sePlan.qc},
				{"space-efficient closure memo", se, new(queryCtx)},
			}
			if se.edges != nil {
				t.Fatalf("%s/%s: the space-efficient label holds an edge table", sc.name, v.Name)
			}

			tableBits, derivable := bitsOf(def.start), 0
			for k := 1; k < len(def.included); k++ {
				cl, ok := closures[k]
				want := def.included[k] && ok
				for _, vl := range []*ViewLabel{def, qe} {
					if got := vl.edges[k] != nil; got != want {
						t.Fatalf("%s/%s %v: production %d has a table entry %v, want %v", sc.name, v.Name, vl.variant, k, got, want)
					}
				}
				if !want {
					continue
				}
				derivable++
				check := func(kind, i, j int, ref *boolmat.Matrix) {
					t.Helper()
					for _, src := range sources {
						src.qc.begin()
						got, err := src.vl.edge(src.qc, kind, k, i, j)
						if err != nil {
							t.Fatalf("%s/%s %s: matrix %d of (%d, %d, %d): %v", sc.name, v.Name, src.name, kind, k, i, j, err)
						}
						if !got.Equal(ref) {
							t.Fatalf("%s/%s %s: matrix %d of (%d, %d, %d) is\n%v\nwant\n%v", sc.name, v.Name, src.name, kind, k, i, j, got, ref)
						}
					}
				}
				n := len(sc.spec.Grammar.Productions[k-1].RHS.Nodes)
				for i := 1; i <= n; i++ {
					in, out := cl.InputsTo(i-1), cl.OutputsTo(i-1)
					check(kindI, i, 0, in)
					check(kindO, i, 0, out)
					tableBits += bitsOf(in, out)
					for j := 1; j <= n; j++ {
						z := cl.Between(i-1, j-1)
						check(kindZ, i, j, z)
						if i < j {
							tableBits += bitsOf(z)
						}
					}
				}
			}
			if derivable == 0 {
				t.Fatalf("%s/%s: no derivable production", sc.name, v.Name)
			}

			chainBits := 0
			for _, c := range scheme.Cycles {
				for off := 1; off <= c.Len(); off++ {
					for _, outputs := range []bool{false, true} {
						got := qe.chain(new(queryCtx), c, off, outputs)
						if (got != nil) != qe.cycleIncluded(c) {
							t.Fatalf("%s/%s: cycle %d is included %v, but its chain at offset %d is %v", sc.name, v.Name, c.Index, qe.cycleIncluded(c), off, got)
						}
						var built *recChain
						for _, built = range []*recChain{def.chain(defPlan.qc, c, off, outputs), se.chain(sePlan.qc, c, off, outputs)} {
							if (built == nil) != (got == nil) || got != nil && !sameChain(got, built) {
								t.Fatalf("%s/%s: chain (%d, %d, outputs %v) differs between the query-efficient table and a plan", sc.name, v.Name, c.Index, off, outputs)
							}
						}
						if built != nil {
							chains++
							chainBits += bitsOf(built.prefixes...) + built.period.SizeBits()
						}
					}
				}
			}
			sePlan.Close()
			defPlan.Close()

			if got := def.SizeBits(); got != tableBits {
				t.Fatalf("%s/%s: default SizeBits %d, want λ*(S) and the tables' %d", sc.name, v.Name, got, tableBits)
			}
			if got := qe.SizeBits(); got != tableBits+chainBits {
				t.Fatalf("%s/%s: query-efficient SizeBits %d, want %d plus the chains' %d", sc.name, v.Name, got, tableBits, chainBits)
			}
		}
		if !sc.basic && chains == 0 {
			t.Fatalf("%s: no view holds a recursion chain", sc.name)
		}
	}
}
