package bench

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/labelstore"
	"repro/internal/view"
	"repro/internal/workloads"
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

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse %q as a number: %v", s, err)
	}
	return v
}

// TestSnapshotServingOnRealSnapshot writes a snapshot the way wflabel
// -snapshot does and runs the differential snapshot experiment against it.
func TestSnapshotServingOnRealSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness test skipped in -short mode")
	}
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	var labels []*core.ViewLabel
	for _, v := range []*view.View{view.Default(spec), sec} {
		vl, err := scheme.LabelView(v, core.VariantQueryEfficient)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, vl)
	}
	path := filepath.Join(t.TempDir(), "labels.fvl")
	if err := labelstore.SaveFile(path, scheme, labels); err != nil {
		t.Fatal(err)
	}

	cfg := QuickConfig()
	cfg.SnapshotPath = path
	table, err := SnapshotServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(labels) {
		t.Fatalf("expected one row per label, got %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[len(row)-1] != "identical" {
			t.Fatalf("row %v did not verify as identical", row)
		}
	}

	cfg.SnapshotPath = filepath.Join(t.TempDir(), "missing.fvl")
	if _, err := SnapshotServing(cfg); err == nil {
		t.Fatal("a missing snapshot file must fail the experiment")
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig17"); !ok {
		t.Fatalf("fig17 must be registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatalf("unknown experiment must not resolve")
	}
	if len(All()) != 16 {
		t.Fatalf("expected 16 experiments (9 figures + table 1 + engine + setquery + live + snapshot + recovery + service), got %d", len(All()))
	}
}
