package fvl_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/fvl"
)

// labelFunc abstracts the two label resolvers the set-query surfaces pin:
// a completed run's RunLabels and a live Session's current prefix.
type labelFunc func(itemID int) (fvl.Label, bool)

// oracleDeps answers Deps(x) by brute force: one point query per candidate,
// including exactly the candidates whose point query answers (true, nil).
func oracleDeps(vl *fvl.ViewLabel, label labelFunc, n, x int, reverse bool) []int {
	lx, ok := label(x)
	if !ok {
		return nil
	}
	out := []int{}
	for y := 1; y <= n; y++ {
		ly, ok := label(y)
		if !ok {
			continue
		}
		var dep bool
		var err error
		if reverse {
			dep, err = vl.DependsOn(lx, ly)
		} else {
			dep, err = vl.DependsOn(ly, lx)
		}
		if err == nil && dep {
			out = append(out, y)
		}
	}
	_ = lx
	return out
}

// oracleBetween answers between(viewA, viewB) under primary by brute force
// over all ordered pairs.
func oracleBetween(primary, va, vb *fvl.ViewLabel, label labelFunc, n int) [][2]int {
	out := [][2]int{}
	for a := 1; a <= n; a++ {
		la, ok := label(a)
		if !ok || !va.Visible(la) {
			continue
		}
		for b := 1; b <= n; b++ {
			lb, ok := label(b)
			if !ok || !vb.Visible(lb) {
				continue
			}
			dep, err := primary.DependsOn(la, lb)
			if err == nil && dep {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

func sameItems(t *testing.T, ctxMsg string, got []int, want []int) {
	t.Helper()
	if got == nil {
		got = []int{}
	}
	if want == nil {
		want = []int{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %v, want %v", ctxMsg, got, want)
	}
}

type diffWorkload struct {
	name    string
	spec    *fvl.Spec
	views   func(t *testing.T, s *fvl.Spec) []*fvl.View
	runSize int
	seed    int64
}

func diffWorkloads(t *testing.T) []diffWorkload {
	t.Helper()
	mustView := func(v *fvl.View, err error) *fvl.View {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	return []diffWorkload{
		{
			name: "paper",
			spec: fvl.PaperExample(),
			views: func(t *testing.T, s *fvl.Spec) []*fvl.View {
				return []*fvl.View{
					mustView(fvl.SecurityView(s)),
					mustView(fvl.AbstractionView(s)),
				}
			},
			runSize: 60, seed: 11,
		},
		{
			name: "bioaid",
			spec: fvl.BioAID(),
			views: func(t *testing.T, s *fvl.Spec) []*fvl.View {
				return []*fvl.View{
					mustView(fvl.RandomView(s, fvl.ViewOptions{Name: "grey", Composites: 8, Mode: fvl.GreyBox, Seed: 4})),
					mustView(fvl.RandomView(s, fvl.ViewOptions{Name: "other", Composites: 5, Mode: fvl.GreyBox, Seed: 9})),
				}
			},
			runSize: 90, seed: 23,
		},
		{
			name: "synthetic",
			spec: fvl.Synthetic(fvl.DefaultSyntheticParams()),
			views: func(t *testing.T, s *fvl.Spec) []*fvl.View {
				return []*fvl.View{
					mustView(fvl.RandomView(s, fvl.ViewOptions{Name: "viewA", Composites: 6, Mode: fvl.GreyBox, Seed: 3})),
					mustView(fvl.RandomView(s, fvl.ViewOptions{Name: "viewB", Composites: 4, Mode: fvl.GreyBox, Seed: 8})),
				}
			},
			runSize: 80, seed: 31,
		},
		{
			name: "random",
			spec: fvl.Synthetic(fvl.SyntheticParams{WorkflowSize: 24, ModuleDegree: 6, NestingDepth: 2, RecursionLength: 3}),
			views: func(t *testing.T, s *fvl.Spec) []*fvl.View {
				return []*fvl.View{
					mustView(fvl.RandomView(s, fvl.ViewOptions{Name: "randA", Composites: 5, Mode: fvl.GreyBox, Seed: 17})),
					mustView(fvl.RandomView(s, fvl.ViewOptions{Name: "randB", Composites: 7, Mode: fvl.GreyBox, Seed: 29})),
				}
			},
			runSize: 70, seed: 41,
		},
	}
}

// setOracle holds the brute-force answers of one workload's run, computed
// once from point queries against a separate query-efficient service (as
// perfbench's oracle does) and shared by every serving variant under test:
// data labels and visibility do not depend on the variant, and honest
// space-efficient point queries would cost far more than the set queries
// they check.
type setOracle struct {
	n                int
	hidden           []bool   // by item ID
	deps, revdeps    [][]int  // by item ID; nil for hidden items
	between          [][2]int // between(primary, secondary) under primary
	outs, explain    []int    // final outputs and explain(outs)
	x1, x2           int      // two visible items (0 when missing)
	union, intersect []int    // deps(x1) ∪/∩ revdeps(x2)
}

func newSetOracle(t *testing.T, ctx context.Context, spec *fvl.Spec, views []*fvl.View, run *fvl.Run) *setOracle {
	t.Helper()
	svc, err := fvl.Open(ctx, spec, views, fvl.WithVariant(fvl.QueryEfficient), fvl.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	labels, err := svc.NewLabeler().Label(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	n := labels.Count()
	pvl, _ := svc.ViewLabel(views[0].Name())
	bvl, _ := svc.ViewLabel(views[1].Name())
	o := &setOracle{
		n:       n,
		hidden:  make([]bool, n+1),
		deps:    make([][]int, n+1),
		revdeps: make([][]int, n+1),
		between: oracleBetween(pvl, pvl, bvl, labels.Label, n),
	}
	if len(o.between) == 0 {
		o.between = nil
	}
	var initials []int
	for x := 1; x <= n; x++ {
		lx, _ := labels.Label(x)
		o.hidden[x] = !pvl.Visible(lx)
		if !o.hidden[x] {
			o.deps[x] = oracleDeps(pvl, labels.Label, n, x, false)
			o.revdeps[x] = oracleDeps(pvl, labels.Label, n, x, true)
		}
		if lx.IsFinalOutput() {
			o.outs = append(o.outs, x)
		}
		if lx.IsInitialInput() {
			initials = append(initials, x)
		}
	}
	// explain over the final outputs: the union of the visible outputs'
	// deps, restricted to initial inputs.
	seen := map[int]bool{}
	for _, x := range o.outs {
		for _, y := range o.deps[x] {
			seen[y] = true
		}
	}
	for _, y := range initials {
		if seen[y] {
			o.explain = append(o.explain, y)
		}
	}
	o.x1, o.x2 = pickVisible(t, pvl, labels.Label, n, 0), pickVisible(t, pvl, labels.Label, n, 1)
	if o.x1 > 0 && o.x2 > 0 {
		o.union = setUnion(o.deps[o.x1], o.revdeps[o.x2])
		o.intersect = setIntersect(o.deps[o.x1], o.revdeps[o.x2])
	}
	return o
}

// TestSetQueriesMatchPointQueryOracle is the differential oracle of the
// set-query subsystem: on every workload and under every serving variant,
// every set answer must be identical to the brute-force loop of point
// queries over the same run — including the error semantics for hidden and
// unknown targets.
func TestSetQueriesMatchPointQueryOracle(t *testing.T) {
	ctx := context.Background()
	for _, w := range diffWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			views := w.views(t, w.spec)
			run, err := fvl.RandomRun(w.spec, fvl.RunOptions{TargetSize: w.runSize, Seed: w.seed})
			if err != nil {
				t.Fatal(err)
			}
			want := newSetOracle(t, ctx, w.spec, views, run)
			for _, variant := range []fvl.Variant{fvl.SpaceEfficient, fvl.Materialized, fvl.QueryEfficient} {
				variant := variant
				t.Run(variant.String(), func(t *testing.T) {
					svc, err := fvl.Open(ctx, w.spec, views, fvl.WithVariant(variant), fvl.WithWorkers(2))
					if err != nil {
						t.Fatal(err)
					}
					labels, err := svc.NewLabeler().Label(ctx, run)
					if err != nil {
						t.Fatal(err)
					}
					n := labels.Count()
					if n != want.n {
						t.Fatalf("%d labeled items, oracle has %d", n, want.n)
					}
					primary, secondary := views[0].Name(), views[1].Name()

					// Every deps(x)/revdeps(x), including hidden targets.
					for x := 1; x <= n; x++ {
						for _, reverse := range []bool{false, true} {
							q, kind, items := fvl.DepsOf(x), "deps", want.deps[x]
							if reverse {
								q, kind, items = fvl.RevDepsOf(x), "revdeps", want.revdeps[x]
							}
							a, err := svc.Query(ctx, primary, labels, q)
							if want.hidden[x] {
								if !errors.Is(err, fvl.ErrHiddenItem) {
									t.Fatalf("%s(%d) on hidden target: got err %v, want ErrHiddenItem", kind, x, err)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s(%d): %v", kind, x, err)
							}
							sameItems(t, fmt.Sprintf("%s(%d)", kind, x), a.Items, items)
						}
					}

					// Unknown targets.
					if _, err := svc.Query(ctx, primary, labels, fvl.DepsOf(n+7)); !errors.Is(err, fvl.ErrUnknownItem) {
						t.Fatalf("deps(unknown): got err %v, want ErrUnknownItem", err)
					}

					// between(primary, secondary) under primary.
					ans, err := svc.Query(ctx, primary, labels, fvl.BetweenViews(primary, secondary))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ans.Pairs, want.between) {
						t.Fatalf("between: got %v, want %v", ans.Pairs, want.between)
					}

					if len(want.outs) > 0 {
						a, err := svc.Query(ctx, primary, labels, fvl.ExplainOutputs(want.outs...))
						if err != nil {
							t.Fatal(err)
						}
						sameItems(t, "explain(outputs)", a.Items, want.explain)
					}

					// Combinators against set algebra over the oracle.
					if want.x1 > 0 && want.x2 > 0 {
						u, err := svc.Query(ctx, primary, labels, fvl.DepsOf(want.x1).Union(fvl.RevDepsOf(want.x2)))
						if err != nil {
							t.Fatal(err)
						}
						sameItems(t, "union", u.Items, want.union)
						in, err := svc.Query(ctx, primary, labels, fvl.DepsOf(want.x1).Intersect(fvl.RevDepsOf(want.x2)))
						if err != nil {
							t.Fatal(err)
						}
						sameItems(t, "intersect", in.Items, want.intersect)
					}
					for side := 1; side <= 2; side++ {
						a, err := svc.Query(ctx, primary, labels, fvl.BetweenViews(primary, secondary).Project(side))
						if err != nil {
							t.Fatal(err)
						}
						seen := map[int]bool{}
						for _, pr := range want.between {
							seen[pr[side-1]] = true
						}
						var items []int
						for y := 1; y <= n; y++ {
							if seen[y] {
								items = append(items, y)
							}
						}
						sameItems(t, fmt.Sprintf("project(between,%d)", side), a.Items, items)
					}
				})
			}
		})
	}
}

func pickVisible(t *testing.T, vl *fvl.ViewLabel, label labelFunc, n, skip int) int {
	t.Helper()
	for x := 1; x <= n; x++ {
		lx, ok := label(x)
		if ok && vl.Visible(lx) {
			if skip == 0 {
				return x
			}
			skip--
		}
	}
	return 0
}

func setUnion(a, b []int) []int {
	seen := map[int]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		seen[x] = true
	}
	out := make([]int, 0, len(seen))
	for x := range seen {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func setIntersect(a, b []int) []int {
	inA := map[int]bool{}
	for _, x := range a {
		inA[x] = true
	}
	var out []int
	for _, x := range b {
		if inA[x] {
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// TestLiveSetQueriesMatchPointQueryOracle runs the same differential oracle
// against the live surface: a session is driven partway through a BioAID
// run and every set answer at the pinned prefix must equal the brute-force
// point-query loop over the same prefix, under every serving variant. Part
// of the run is driven one step at a time with a sampled check after each
// step, so the session's item index is extended by back-to-back one-step
// epochs under the oracle.
func TestLiveSetQueriesMatchPointQueryOracle(t *testing.T) {
	ctx := context.Background()
	spec := fvl.BioAID()
	vA, err := fvl.RandomView(spec, fvl.ViewOptions{Name: "grey", Composites: 8, Mode: fvl.GreyBox, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	vB, err := fvl.RandomView(spec, fvl.ViewOptions{Name: "other", Composites: 5, Mode: fvl.GreyBox, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []fvl.Variant{fvl.SpaceEfficient, fvl.Materialized, fvl.QueryEfficient} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			svc, err := fvl.Open(ctx, spec, []*fvl.View{vA, vB}, fvl.WithVariant(variant), fvl.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			sess, err := svc.OpenLive()
			if err != nil {
				t.Fatal(err)
			}
			pvl, _ := svc.ViewLabel(vA.Name())
			bvl, _ := svc.ViewLabel(vB.Name())
			rng := rand.New(rand.NewSource(5))
			for round := 0; round < 4; round++ {
				if round == 1 {
					for step := 0; step < 12 && !sess.IsComplete(); step++ {
						drive(t, sess, sess.Epoch()+1, int64(200+step))
						n := sess.Items()
						for _, x := range []int{n, n - 1, 1 + rng.Intn(n)} {
							if lx, _ := sess.Label(x); !pvl.Visible(lx) {
								continue
							}
							a, _, err := sess.Query(ctx, vA.Name(), fvl.DepsOf(x))
							if err != nil {
								t.Fatalf("step %d: live deps(%d): %v", sess.Epoch(), x, err)
							}
							sameItems(t, fmt.Sprintf("step %d: live deps(%d)", sess.Epoch(), x),
								a.Items, oracleDeps(pvl, sess.Label, n, x, false))
							r, _, err := sess.Query(ctx, vA.Name(), fvl.RevDepsOf(x))
							if err != nil {
								t.Fatalf("step %d: live revdeps(%d): %v", sess.Epoch(), x, err)
							}
							sameItems(t, fmt.Sprintf("step %d: live revdeps(%d)", sess.Epoch(), x),
								r.Items, oracleDeps(pvl, sess.Label, n, x, true))
						}
					}
				}
				drive(t, sess, sess.Epoch()+12, int64(100+round))
				n := sess.Items()
				for x := 1; x <= n; x++ {
					lx, _ := sess.Label(x)
					if !pvl.Visible(lx) {
						if _, _, err := sess.Query(ctx, vA.Name(), fvl.DepsOf(x)); !errors.Is(err, fvl.ErrHiddenItem) {
							t.Fatalf("live deps(%d) on hidden target: got %v", x, err)
						}
						continue
					}
					a, epoch, err := sess.Query(ctx, vA.Name(), fvl.DepsOf(x))
					if err != nil {
						t.Fatalf("live deps(%d): %v", x, err)
					}
					if epoch != sess.Epoch() {
						t.Fatalf("live deps(%d): answered at epoch %d, session at %d", x, epoch, sess.Epoch())
					}
					sameItems(t, fmt.Sprintf("live deps(%d)", x),
						a.Items, oracleDeps(pvl, sess.Label, n, x, false))
					r, _, err := sess.Query(ctx, vA.Name(), fvl.RevDepsOf(x))
					if err != nil {
						t.Fatalf("live revdeps(%d): %v", x, err)
					}
					sameItems(t, fmt.Sprintf("live revdeps(%d)", x),
						r.Items, oracleDeps(pvl, sess.Label, n, x, true))
				}
				// Items beyond the pinned prefix are unknown, exactly like the
				// point path.
				if _, _, err := sess.Query(ctx, vA.Name(), fvl.DepsOf(n+3)); !errors.Is(err, fvl.ErrUnknownItem) {
					t.Fatalf("live deps(beyond prefix): got %v, want ErrUnknownItem", err)
				}
				ans, _, err := sess.Query(ctx, vA.Name(), fvl.BetweenViews(vA.Name(), vB.Name()))
				if err != nil {
					t.Fatal(err)
				}
				want := oracleBetween(pvl, pvl, bvl, sess.Label, n)
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(ans.Pairs, want) {
					t.Fatalf("live between: got %v, want %v", ans.Pairs, want)
				}
				if sess.IsComplete() {
					break
				}
			}
		})
	}
}

// TestQueryExprSurface covers the expression builders' error paths, the
// text round trip and the batch-level argument checks.
func TestQueryExprSurface(t *testing.T) {
	ctx := context.Background()
	spec := fvl.PaperExample()
	v, err := fvl.SecurityView(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fvl.Open(ctx, spec, []*fvl.View{v})
	if err != nil {
		t.Fatal(err)
	}
	view := v.Name()

	q := fvl.DepsOf(3).Union(fvl.RevDepsOf(4))
	parsed, err := fvl.ParseQueryExpr(q.String())
	if err != nil || parsed.String() != q.String() || parsed.Err() != nil {
		t.Fatalf("round trip of %s: %s, %v", q, parsed, err)
	}
	if q.Pairs() || !fvl.BetweenViews(view, view).Pairs() {
		t.Fatal("Pairs misreports the result kind")
	}
	if _, err := fvl.ParseQueryExpr("deps("); !errors.Is(err, fvl.ErrInvalidQuery) {
		t.Fatalf("malformed text: want ErrInvalidQuery, got %v", err)
	}

	// A kind mismatch poisons the expression, and the poison survives
	// further composition on either side.
	bad := fvl.DepsOf(1).Union(fvl.BetweenViews(view, view))
	for _, e := range []fvl.QueryExpr{bad, bad.Union(q), q.Intersect(bad), bad.Project(1)} {
		if e.Err() == nil || e.String() != "<invalid>" || e.Pairs() {
			t.Fatalf("poisoned expression reports err=%v, %q", e.Err(), e.String())
		}
	}

	plan, err := svc.ExplainQuery(view, q)
	if err != nil || plan == "" {
		t.Fatalf("explain: %q, %v", plan, err)
	}
	if _, err := svc.ExplainQuery("nope", q); !errors.Is(err, fvl.ErrUnknownView) {
		t.Fatalf("explain on unknown view: want ErrUnknownView, got %v", err)
	}
	if _, err := svc.ExplainQuery(view, fvl.QueryExpr{}); !errors.Is(err, fvl.ErrInvalidQuery) {
		t.Fatalf("explain of the empty expression: want ErrInvalidQuery, got %v", err)
	}

	if _, err := svc.QueryBatch(ctx, view, nil, []fvl.QueryExpr{q}); err == nil {
		t.Fatal("nil run labels accepted")
	}
	run, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := svc.NewLabeler().Label(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := svc.QueryBatch(ctx, view, labels, []fvl.QueryExpr{bad, {}})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err == nil || !errors.Is(answers[1].Err, fvl.ErrInvalidQuery) {
		t.Fatalf("invalid batch members answered %v, %v", answers[0].Err, answers[1].Err)
	}
	if _, err := svc.Query(ctx, view, labels, bad); err == nil {
		t.Fatal("Query answered a poisoned expression")
	}
}
