package fvl_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/fvl"
)

// errClass reduces a query error to the class callers can test with
// errors.Is; the label and index paths word some errors differently.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, fvl.ErrUnknownItem):
		return "unknown"
	case errors.Is(err, fvl.ErrHiddenItem):
		return "hidden"
	default:
		return "error"
	}
}

// TestPointBatchAnswersAcrossIndexStates asks one point batch of one
// session in three states: before its first set batch (label path), after
// it (the set batch indexed the pinned prefix, so the point batch resolves
// through the index), and after the next producer step (a new epoch the
// index does not cover, so the label path again). Labels are final on
// assignment, so the answers about items of the first prefix must not move.
// It runs on every live workload (see liveWorkloads).
func TestPointBatchAnswersAcrossIndexStates(t *testing.T) {
	for _, w := range liveWorkloads(t) {
		t.Run(w.name, func(t *testing.T) { pointBatchAcrossIndexStates(t, w.svc, w.view) })
	}
}

func pointBatchAcrossIndexStates(t *testing.T, svc *fvl.Service, viewName string) {
	sess, err := svc.OpenLive()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	drive(t, sess, 12, 3)
	if sess.IsComplete() {
		t.Fatal("run completed before the producer step the test needs")
	}
	n := sess.Items()
	ids := []int{0, -1, 1 << 30}
	for id := 1; id <= n; id += 1 + n/24 {
		ids = append(ids, id)
	}
	var queries []fvl.ItemQuery
	for _, a := range ids {
		for _, b := range ids {
			queries = append(queries, fvl.ItemQuery{From: a, To: b})
		}
	}

	batch := func(state string, indexed bool) ([]fvl.Result, uint64) {
		t.Helper()
		if got := fvl.SessionIndexedAt(sess, sess.Epoch()); got != indexed {
			t.Fatalf("%s: index at the pinned epoch = %v, want %v", state, got, indexed)
		}
		res, epoch, err := sess.DependsOnBatch(ctx, viewName, queries)
		if err != nil {
			t.Fatalf("%s: %v", state, err)
		}
		return res, epoch
	}
	same := func(state string, got, want []fvl.Result) {
		t.Helper()
		classes := map[string]int{}
		for i := range got {
			if got[i].DependsOn != want[i].DependsOn || errClass(got[i].Err) != errClass(want[i].Err) {
				t.Fatalf("%s: query %+v answered %+v, label path %+v", state, queries[i], got[i], want[i])
			}
			classes[errClass(got[i].Err)]++
			if got[i].DependsOn {
				classes["true"]++
			}
		}
		for _, c := range []string{"true", "ok", "unknown", "hidden"} {
			if classes[c] == 0 {
				t.Fatalf("%s: no answer of class %q in %v", state, c, classes)
			}
		}
	}

	before, e0 := batch("before the first set batch", false)
	if _, e, err := sess.QueryBatch(ctx, viewName, []fvl.QueryExpr{fvl.DepsOf(n)}); err != nil || e != e0 {
		t.Fatalf("set batch: epoch %d (want %d), err %v", e, e0, err)
	}
	indexed, e1 := batch("after the set batch", true)
	same("after the set batch", indexed, before)
	drive(t, sess, e0+1, 4)
	after, e2 := batch("after the next producer step", false)
	if e1 != e0 || e2 != e0+1 {
		t.Fatalf("epochs %d, %d, %d: want %d, %d, %d", e0, e1, e2, e0, e0, e0+1)
	}
	same("after the next producer step", after, before)
}

// TestLiveBatchesInterleaveUnderProducer: queriers alternate set and point
// batches on one live session while a producer applies steps, so point
// batches land both on epochs a set batch has indexed and on epochs it has
// not. Every answer is checked against a replay of the producer's steps at
// the answer's pinned epoch. Run under -race this also covers the index
// cache and the plan share being read by both batch kinds at once. It runs
// on every live workload (see liveWorkloads).
func TestLiveBatchesInterleaveUnderProducer(t *testing.T) {
	for _, w := range liveWorkloads(t) {
		t.Run(w.name, func(t *testing.T) { liveBatchesInterleave(t, w.svc, w.view) })
	}
}

func liveBatchesInterleave(t *testing.T, svc *fvl.Service, viewName string) {
	vl, _ := svc.ViewLabel(viewName)
	sess, err := svc.OpenLive()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	type step struct{ inst, prod int }
	var steps []step
	rng := rand.New(rand.NewSource(11))
	apply := func() bool {
		frontier := sess.Frontier()
		if len(frontier) == 0 {
			return false
		}
		inst := frontier[rng.Intn(len(frontier))]
		prods := sess.Expandable(inst)
		prod := prods[rng.Intn(len(prods))]
		if _, err := sess.Apply(inst, prod); err != nil {
			t.Errorf("apply(%d, %d): %v", inst, prod, err)
			return false
		}
		steps = append(steps, step{inst, prod})
		return true
	}
	for len(steps) < 5 && apply() {
	}

	type setObs struct {
		epoch   uint64
		x       int
		answers []fvl.SetAnswer
	}
	type pointObs struct {
		epoch   uint64
		queries []fvl.ItemQuery
		results []fvl.Result
	}
	const queriers, minRounds = 2, 12
	var (
		sets    [queriers][]setObs
		points  [queriers][]pointObs
		started sync.WaitGroup
		wg      sync.WaitGroup
		done    atomic.Bool
	)
	started.Add(queriers)
	wg.Add(queriers)
	for w := 0; w < queriers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for round := 0; round < minRounds || !done.Load(); round++ {
				n := sess.Items()
				x := 1 + rng.Intn(n+2)
				answers, epoch, err := sess.QueryBatch(ctx, viewName, []fvl.QueryExpr{fvl.DepsOf(x), fvl.RevDepsOf(x)})
				if err != nil {
					t.Errorf("querier %d: set batch: %v", w, err)
					return
				}
				sets[w] = append(sets[w], setObs{epoch, x, answers})
				queries := make([]fvl.ItemQuery, 12)
				for i := range queries {
					queries[i] = fvl.ItemQuery{From: rng.Intn(n + 3), To: rng.Intn(n + 3)}
				}
				results, epoch, err := sess.DependsOnBatch(ctx, viewName, queries)
				if err != nil {
					t.Errorf("querier %d: point batch: %v", w, err)
					return
				}
				points[w] = append(points[w], pointObs{epoch, queries, results})
				if round == 0 {
					started.Done()
				}
			}
		}(w)
	}
	// The producer starts once every querier has answered at the first
	// epoch, so the observations span several epochs.
	started.Wait()
	for len(steps) < 40 && apply() {
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Replay the producer's steps on a fresh session, noting the item count
	// at every epoch; labels are final on assignment, so the replay's labels
	// of items 1..itemsAt[e] are the labels of the prefix at epoch e.
	replay, err := svc.OpenLive()
	if err != nil {
		t.Fatal(err)
	}
	itemsAt := []int{replay.Items()}
	for _, s := range steps {
		if _, err := replay.Apply(s.inst, s.prod); err != nil {
			t.Fatalf("replay apply(%d, %d): %v", s.inst, s.prod, err)
		}
		itemsAt = append(itemsAt, replay.Items())
	}

	epochs := map[uint64]bool{}
	for w := 0; w < queriers; w++ {
		for _, o := range points[w] {
			epochs[o.epoch] = true
			n := itemsAt[o.epoch]
			for i, q := range o.queries {
				got := o.results[i]
				var want bool
				var wantErr error
				if q.From < 1 || q.From > n || q.To < 1 || q.To > n {
					wantErr = fvl.ErrUnknownItem
				} else {
					l1, _ := replay.Label(q.From)
					l2, _ := replay.Label(q.To)
					want, wantErr = vl.DependsOn(l1, l2)
				}
				if got.DependsOn != want || errClass(got.Err) != errClass(wantErr) {
					t.Fatalf("point %+v at epoch %d: got %+v, replay (%v, %v)", q, o.epoch, got, want, wantErr)
				}
			}
		}
		for _, o := range sets[w] {
			epochs[o.epoch] = true
			n := itemsAt[o.epoch]
			lx, _ := replay.Label(o.x)
			for i, reverse := range []bool{false, true} {
				a := o.answers[i]
				switch {
				case o.x > n:
					if !errors.Is(a.Err, fvl.ErrUnknownItem) {
						t.Fatalf("set %d at epoch %d on item %d beyond %d: got %v", i, o.epoch, o.x, n, a.Err)
					}
				case !vl.Visible(lx):
					if !errors.Is(a.Err, fvl.ErrHiddenItem) {
						t.Fatalf("set %d at epoch %d on hidden item %d: got %v", i, o.epoch, o.x, a.Err)
					}
				default:
					if a.Err != nil {
						t.Fatalf("set %d at epoch %d on item %d: %v", i, o.epoch, o.x, a.Err)
					}
					sameItems(t, "replayed set answer", a.Items, oracleDeps(vl, replay.Label, n, o.x, reverse))
				}
			}
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("every batch pinned one epoch (%v): the producer never overlapped the queriers", epochs)
	}
}
