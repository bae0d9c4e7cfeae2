package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAllExperimentsRunOnQuickConfig executes every experiment of Section 6
// at reduced scale and sanity-checks the resulting tables.
func TestAllExperimentsRunOnQuickConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test skipped in -short mode")
	}
	cfg := QuickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			table, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", e.Name, err)
			}
			if table.Name != e.Name {
				t.Errorf("table name %q != experiment name %q", table.Name, e.Name)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.Name)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Fatalf("%s row %v does not match columns %v", e.Name, row, table.Columns)
				}
			}
			if !strings.Contains(table.String(), table.Title) {
				t.Errorf("%s String() does not include the title", e.Name)
			}
		})
	}
}

// TestFig17ShapeFVLCompactAndLogarithmic checks the headline shape of
// Figure 17 at reduced scale: labels stay compact and grow slowly with the
// run size.
func TestFig17ShapeFVLCompactAndLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test skipped in -short mode")
	}
	cfg := QuickConfig()
	table, err := Fig17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := mustFloat(t, table.Rows[0][1])
	last := mustFloat(t, table.Rows[len(table.Rows)-1][1])
	if last <= 0 || last > 512 {
		t.Fatalf("FVL average label length %v bits out of the compact range", last)
	}
	// 4x larger runs may add only a bounded number of bits (logarithmic
	// growth), not multiply the length.
	if last > 2*first {
		t.Fatalf("FVL label length grew from %v to %v bits over a 4x size increase; not logarithmic", first, last)
	}
}

// TestFig21ShapeFVLFlatDRLGrowing checks the headline claim of the paper:
// FVL's per-item label cost is independent of the number of views while
// DRL's grows with every added view.
func TestFig21ShapeFVLFlatDRLGrowing(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test skipped in -short mode")
	}
	cfg := QuickConfig()
	table, err := Fig21(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstFVL := mustFloat(t, table.Rows[0][1])
	lastFVL := mustFloat(t, table.Rows[len(table.Rows)-1][1])
	firstDRL := mustFloat(t, table.Rows[0][2])
	lastDRL := mustFloat(t, table.Rows[len(table.Rows)-1][2])
	if firstFVL != lastFVL {
		t.Fatalf("FVL per-item label length must not depend on the number of views: %v vs %v", firstFVL, lastFVL)
	}
	if lastDRL < float64(len(table.Rows))*firstDRL*0.9 {
		t.Fatalf("DRL per-item label length should grow roughly linearly with the views: first %v, last %v over %d views",
			firstDRL, lastDRL, len(table.Rows))
	}
	if lastDRL <= lastFVL {
		t.Fatalf("with %d views DRL (%v bits) must exceed FVL (%v bits)", len(table.Rows), lastDRL, lastFVL)
	}
}

// TestFig19ShapeVariantLabelSizes checks Figure 19's ordering of the three
// view-label variants for every view: the space-efficient label is at most
// half the default one, and the default label is no larger than the
// query-efficient one. Label sizes are deterministic, so no margin is needed
// beyond the paper's factor.
func TestFig19ShapeVariantLabelSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test skipped in -short mode")
	}
	table, err := Fig19(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	kb := map[string]map[string]float64{}
	for _, row := range table.Rows {
		if kb[row[0]] == nil {
			kb[row[0]] = map[string]float64{}
		}
		kb[row[0]][row[1]] = mustFloat(t, row[2])
	}
	space, def, query := core.VariantSpaceEfficient.String(), core.VariantDefault.String(), core.VariantQueryEfficient.String()
	for _, name := range []string{"small", "medium", "large"} {
		sizes := kb[name]
		if len(sizes) != 3 {
			t.Fatalf("view %q: want one row per variant, got %v", name, sizes)
		}
		if sizes[space] > sizes[def]/2 {
			t.Errorf("view %q: space-efficient label %v KB exceeds half the default label %v KB", name, sizes[space], sizes[def])
		}
		if sizes[def] > sizes[query] {
			t.Errorf("view %q: default label %v KB exceeds the query-efficient label %v KB", name, sizes[def], sizes[query])
		}
	}
}

// TestFig24ShapeLabelsGrowWithNesting checks Figure 24: the average data
// label length rises strictly with the nesting depth of the workflow, one
// path element per level of the compressed parse tree.
func TestFig24ShapeLabelsGrowWithNesting(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test skipped in -short mode")
	}
	table, err := Fig24(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, row := range table.Rows {
		bits := mustFloat(t, row[1])
		if bits <= prev {
			t.Fatalf("depth %s: average label %v bits does not exceed the shallower depth's %v bits", row[0], bits, prev)
		}
		prev = bits
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse %q as a number: %v", s, err)
	}
	return v
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig17"); !ok {
		t.Fatalf("fig17 must be registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatalf("unknown experiment must not resolve")
	}
	if len(All()) != 11 {
		t.Fatalf("expected 11 experiments (fig17..fig25 + table1 + engine), got %d", len(All()))
	}
}
