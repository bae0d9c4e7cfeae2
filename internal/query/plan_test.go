package query_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/query"
	"repro/internal/workloads"
)

// mapCatalog serves an explicit label per view.
type mapCatalog map[string]*core.ViewLabel

func (c mapCatalog) Label(view string) (*core.ViewLabel, bool) {
	vl, ok := c[view]
	return vl, ok
}

// planFixture labels the paper example's two views under all three variants
// and a random run to query over.
type planFixture struct {
	scheme   *core.Scheme
	idx      *core.ItemIndex
	n        int
	labels   map[string]map[core.Variant]*core.ViewLabel // view -> variant -> label
	security *core.ViewLabel                             // query-efficient, for picking targets
}

var allVariants = []core.Variant{core.VariantSpaceEfficient, core.VariantDefault, core.VariantQueryEfficient}

func newPlanFixture(t *testing.T) *planFixture {
	t.Helper()
	spec := workloads.PaperExample()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := workloads.PaperSecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := workloads.PaperAbstractionView(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := &planFixture{scheme: scheme, labels: map[string]map[core.Variant]*core.ViewLabel{}}
	f.labels["security"] = map[core.Variant]*core.ViewLabel{}
	f.labels["abstraction"] = map[core.Variant]*core.ViewLabel{}
	for _, variant := range allVariants {
		vl, err := scheme.LabelView(sec, variant)
		if err != nil {
			t.Fatal(err)
		}
		f.labels["security"][variant] = vl
		vl2, err := scheme.LabelView(abs, variant)
		if err != nil {
			t.Fatal(err)
		}
		f.labels["abstraction"][variant] = vl2
	}
	f.security = f.labels["security"][core.VariantQueryEfficient]
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 60, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	labeler, err := scheme.LabelRun(r)
	if err != nil {
		t.Fatal(err)
	}
	f.n = labeler.Count()
	f.idx = core.BuildItemIndex(0, f.n, labeler.Label)
	return f
}

// catalogWith serves the security view under one variant and the
// abstraction view under another.
func (f *planFixture) catalogWith(security, abstraction core.Variant) mapCatalog {
	return mapCatalog{
		"security":    f.labels["security"][security],
		"abstraction": f.labels["abstraction"][abstraction],
	}
}

// pickVisibleTarget returns an item visible in the security view.
func (f *planFixture) pickVisibleTarget(t *testing.T, labeler func(int) bool) int {
	t.Helper()
	for x := 1; x <= f.n; x++ {
		if labeler(x) {
			return x
		}
	}
	t.Fatal("no visible item")
	return 0
}

// TestPlannerFallbackMatrix is the access-path matrix: for every IR shape,
// under each of the three variants and under catalogs that serve the two
// views with different variants, every access path must name the variant
// the catalog serves for its view, and the executed answer must be
// byte-identical no matter which variants serve it.
func TestPlannerFallbackMatrix(t *testing.T) {
	f := newPlanFixture(t)
	x := f.pickVisibleTarget(t, func(x int) bool {
		return f.idx.Has(x) && itemVisible(f, x)
	})

	shapes := []struct {
		name string
		expr *query.Expr
	}{
		{"deps", query.Deps(x)},
		{"revdeps", query.RevDeps(x)},
		{"between", query.Between("security", "abstraction")},
		{"explain", query.Explain(x)},
		{"union", query.Union(query.Deps(x), query.RevDeps(x))},
		{"intersect", query.Intersect(query.Deps(x), query.RevDeps(x))},
		{"project", query.Project(query.Between("security", "abstraction"), 2)},
	}
	// Each variant serves both views, then each serves security while the
	// next one serves abstraction, so between's endpoints differ.
	var catalogs [][2]core.Variant
	for i, v := range allVariants {
		catalogs = append(catalogs, [2]core.Variant{v, v})
		catalogs = append(catalogs, [2]core.Variant{v, allVariants[(i+1)%len(allVariants)]})
	}

	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			var refItems []int
			var refPairs [][2]int
			for i, vs := range catalogs {
				cat := f.catalogWith(vs[0], vs[1])
				plan, err := query.Compile(cat, "security", shape.expr)
				if err != nil {
					t.Fatalf("variants %v: %v", vs, err)
				}
				paths := plan.AccessPaths()
				if len(paths) == 0 {
					t.Fatalf("variants %v: plan has no access paths", vs)
				}
				for _, ap := range paths {
					if want := cat[ap.View].Variant(); ap.Variant != want {
						t.Fatalf("variants %v: access path %v, want variant %v", vs, ap, want)
					}
				}
				s := core.NewQuerySession()
				v, err := plan.Execute(s, f.idx)
				s.Close()
				if err != nil {
					t.Fatalf("variants %v: execute: %v", vs, err)
				}
				items, pairs := v.ItemIDs(), v.PairList()
				if i == 0 {
					refItems, refPairs = items, pairs
					continue
				}
				if !reflect.DeepEqual(items, refItems) || !reflect.DeepEqual(pairs, refPairs) {
					t.Fatalf("variants %v: answer diverges from reference:\n got %v %v\nwant %v %v",
						vs, items, pairs, refItems, refPairs)
				}
			}
		})
	}
}

// itemVisible reports whether the item is visible in the security view under
// the fixture's query-efficient label.
func itemVisible(f *planFixture, x int) bool {
	s := core.NewQuerySession()
	defer s.Close()
	_, err := s.DepsRow(f.security, f.idx, x)
	return err == nil
}

// TestCompileErrors pins the planner's error taxonomy: unknown views wrap
// faults.ErrUnknownView, malformed expressions wrap faults.ErrInvalidQuery.
func TestCompileErrors(t *testing.T) {
	f := newPlanFixture(t)
	cat := f.catalogWith(core.VariantDefault, core.VariantDefault)
	if _, err := query.Compile(cat, "ghost", query.Deps(1)); !errors.Is(err, faults.ErrUnknownView) {
		t.Fatalf("unknown primary view: got %v", err)
	}
	if _, err := query.Compile(cat, "security", query.Between("security", "ghost")); !errors.Is(err, faults.ErrUnknownView) {
		t.Fatalf("unknown between endpoint: got %v", err)
	}
	if _, err := query.Compile(cat, "security", query.Project(query.Deps(1), 1)); !errors.Is(err, faults.ErrInvalidQuery) {
		t.Fatalf("project over items: got %v", err)
	}
	if _, err := query.Compile(cat, "security", query.Explain()); !errors.Is(err, faults.ErrInvalidQuery) {
		t.Fatalf("empty explain: got %v", err)
	}
	if _, err := query.Compile(mapCatalog{}, "security", query.Deps(1)); !errors.Is(err, faults.ErrUnknownView) {
		t.Fatalf("empty catalog: got %v", err)
	}
}
