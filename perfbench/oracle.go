package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/fvl"
	"repro/internal/query"
)

// The oracle of every workload is a separate fvl.Service over the same spec
// and views: its Labeler labels each run (or run prefix) from scratch, and
// its query-efficient view labels answer point queries label by label. Set
// answers are checked against loops of those point queries.

// viewSeed fixes the views of every workload: like the spec, they are part
// of the workload's definition, while the seed draws the runs and queries.
// Random grey-box views differ widely in query cost, so drawing them from
// the seed would make two seeds measure different workloads.
const viewSeed = 7919

func greyView(spec *fvl.Spec, name string, composites int, seed int64) (*fvl.View, error) {
	return fvl.RandomView(spec, fvl.ViewOptions{Name: name, Composites: composites, Mode: fvl.GreyBox, Seed: seed})
}

// visibleItems lists the items of the run visible in the view; queries only
// name visible items, so no operation of a workload fails by design.
func visibleItems(r *fvl.Run, v *fvl.View) ([]int, error) {
	p, err := r.Project(v)
	if err != nil {
		return nil, err
	}
	return p.VisibleItems(), nil
}

// oraclePairs draws n random pairs of visible items and answers them with
// the oracle.
func oraclePairs(r *fvl.Run, v *fvl.View, labels *fvl.RunLabels, ovl *fvl.ViewLabel, n int, rng *rand.Rand) ([]fvl.ItemQuery, []bool, error) {
	vis, err := visibleItems(r, v)
	if err != nil {
		return nil, nil, err
	}
	pairs := randomPairs(vis, n, rng)
	want := make([]bool, n)
	for i, q := range pairs {
		if want[i], err = oracleDependsOn(labels, ovl, q.From, q.To); err != nil {
			return nil, nil, err
		}
	}
	return pairs, want, nil
}

func randomPairs(items []int, n int, rng *rand.Rand) []fvl.ItemQuery {
	pairs := make([]fvl.ItemQuery, n)
	for i := range pairs {
		pairs[i] = fvl.ItemQuery{From: items[rng.Intn(len(items))], To: items[rng.Intn(len(items))]}
	}
	return pairs
}

// oracleDependsOn answers "does to depend on from" from oracle labels.
func oracleDependsOn(labels *fvl.RunLabels, ovl *fvl.ViewLabel, from, to int) (bool, error) {
	a, ok1 := labels.Label(from)
	b, ok2 := labels.Label(to)
	if !ok1 || !ok2 {
		return false, fmt.Errorf("oracle has no label for item %d or %d", from, to)
	}
	return ovl.DependsOn(a, b)
}

// sameAnswers compares a point batch with the oracle's answers.
func sameAnswers(res []fvl.Result, want []bool) error {
	if len(res) != len(want) {
		return fmt.Errorf("%d answers for %d queries", len(res), len(want))
	}
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("query %d: %w", i, r.Err)
		}
		if r.DependsOn != want[i] {
			return fmt.Errorf("query %d answered %v, oracle says %v", i, r.DependsOn, want[i])
		}
	}
	return nil
}

// sameLabels compares every step-th label of a session with the oracle's.
func sameLabels(s *fvl.Session, oracle *fvl.RunLabels, n, step int) error {
	if s.Items() != n {
		return fmt.Errorf("session holds %d items, oracle %d", s.Items(), n)
	}
	for id := 1; id <= n; id += step {
		got, ok1 := s.Label(id)
		want, ok2 := oracle.Label(id)
		if ok1 != ok2 || (ok1 && got.String() != want.String()) {
			return fmt.Errorf("item %d labeled %v, oracle says %v", id, got, want)
		}
	}
	return nil
}

// setExpr is one generated set query: deps(a), revdeps(a),
// deps(a) ∩ revdeps(b) or deps(a) ∪ deps(b). Each is an item set.
type setExpr struct {
	op   int
	a, b int
}

const (
	opDeps = iota
	opRevDeps
	opBetween
	opEither
	numSetOps
)

func (e setExpr) query() fvl.QueryExpr {
	switch e.op {
	case opDeps:
		return fvl.DepsOf(e.a)
	case opRevDeps:
		return fvl.RevDepsOf(e.a)
	case opBetween:
		return fvl.DepsOf(e.a).Intersect(fvl.RevDepsOf(e.b))
	default:
		return fvl.DepsOf(e.a).Union(fvl.DepsOf(e.b))
	}
}

// member decides whether visible item y is in the set, given dep(from, to)
// = "to depends on from": deps(x) holds every y that x depends on, revdeps(x)
// every y that depends on x.
func (e setExpr) member(dep func(from, to int) (bool, error), y int) (bool, error) {
	switch e.op {
	case opDeps:
		return dep(y, e.a)
	case opRevDeps:
		return dep(e.a, y)
	}
	x, err := dep(y, e.a)
	if err != nil {
		return false, err
	}
	var z bool
	if e.op == opBetween {
		z, err = dep(e.b, y)
		return x && z, err
	}
	z, err = dep(y, e.b)
	return x || z, err
}

// setExprs is a batch of generated set queries in the three forms the
// client, the shadow's parser and the engine take.
type setExprs struct {
	sets   []setExpr
	exprs  []fvl.QueryExpr
	texts  []string      // canonical text, parsed again by the shadow
	qexprs []*query.Expr // the engine's form
}

func newSetExprs(sets []setExpr) (setExprs, error) {
	b := setExprs{sets: sets}
	for _, e := range sets {
		q := e.query()
		if err := q.Err(); err != nil {
			return b, err
		}
		qe, err := query.Parse(q.String())
		if err != nil {
			return b, err
		}
		b.exprs = append(b.exprs, q)
		b.texts = append(b.texts, q.String())
		b.qexprs = append(b.qexprs, qe)
	}
	return b, nil
}

func randomSetExprs(items []int, n int, rng *rand.Rand) []setExpr {
	out := make([]setExpr, n)
	for i := range out {
		out[i] = setExpr{op: i % numSetOps, a: items[rng.Intn(len(items))], b: items[rng.Intn(len(items))]}
	}
	return out
}

// oracleHash answers the set the slow way — a point-query loop over every
// visible item of the 1..n universe — and fingerprints the ascending answer.
func (e setExpr) oracleHash(labels *fvl.RunLabels, ovl *fvl.ViewLabel, n int) (uint64, error) {
	dep := func(from, to int) (bool, error) { return oracleDependsOn(labels, ovl, from, to) }
	var members []int
	for y := 1; y <= n; y++ {
		d, ok := labels.Label(y)
		if !ok || !ovl.Visible(d) {
			continue
		}
		in, err := e.member(dep, y)
		if err != nil {
			return 0, err
		}
		if in {
			members = append(members, y)
		}
	}
	return hashItems(members), nil
}

// checkSetAnswers compares a set batch with its oracle fingerprints.
func checkSetAnswers(answers []fvl.SetAnswer, want []uint64) error {
	if len(answers) != len(want) {
		return fmt.Errorf("%d set answers for %d expressions", len(answers), len(want))
	}
	for i, a := range answers {
		if a.Err != nil {
			return fmt.Errorf("set query %d: %w", i, a.Err)
		}
		if hashItems(a.Items) != want[i] {
			return fmt.Errorf("set query %d: %d items differ from the point-query oracle", i, len(a.Items))
		}
	}
	return nil
}

func setLabelBits(rep *report, bits []float64) {
	sum, top := 0.0, 0.0
	for _, b := range bits {
		sum += b
		top = max(top, b)
	}
	rep.set("label_bits_mean", "bits", sum/float64(len(bits)))
	rep.set("label_bits_max", "bits", top)
}

func setRuntime(rep *report, gc, allocB uint64) {
	rep.set("runtime.gc_cycles", "count", float64(gc))
	rep.set("runtime.alloc_mb", "MB", float64(allocB)/(1<<20))
}

// traceLabelViews prices static view labeling on the service's own scheme.
func traceLabelViews(ctx context.Context, rep *report, svc *fvl.Service, views ...*fvl.View) error {
	lab := svc.NewLabeler()
	t := time.Now()
	if _, err := lab.LabelViews(ctx, views...); err != nil {
		return err
	}
	rep.set("core.label_views_ms", "ms", float64(time.Since(t))/float64(time.Millisecond))
	return nil
}
