package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/fvl"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/labelstore"
	"repro/internal/live"
	"repro/internal/query"
)

// shadow mirrors the system under test one layer down, in the traced phase
// only: it repeats each measured operation through the internal entry
// points (journal decode, live apply, engine batch, core point loop, index
// build, compile, scan) on the same inputs, so a layer's cost is its span
// and a boundary's cost is the outer span minus the inner ones. Shadow spans
// hang under a "shadow.*" root, never under a "path.*" one.
type shadow struct {
	snap *labelstore.Snapshot
	eng  *engine.Server
	svc  *fvl.Service // labels runs from scratch; shares the runs' Spec
	qs   *core.QuerySession

	pairs, exprs int // point queries looped, set expressions compiled

	// Allocations per query of the core point loop, counted on the first
	// allocBatches batches (see countAllocs); the median is reported.
	allocs []float64
}

func newShadow(snapshot []byte, svc *fvl.Service) (*shadow, error) {
	snap, err := labelstore.LoadBytes(snapshot)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewServerFromSnapshot(snap, 1)
	if err != nil {
		return nil, err
	}
	// One long-lived query session with a plan cache, like an engine worker.
	qs := core.NewQuerySession()
	qs.EnsurePlan(nil)
	return &shadow{snap: snap, eng: eng, svc: svc, qs: qs}, nil
}

// replayRound repeats one mixed-fvld round in-process: decode the chunk's
// journal frames, apply them to a journal-free live session, answer the
// point batch through the engine and through a bare core loop, then build
// the epoch's index and answer the set batch through the engine and through
// compile + scan.
func (sh *shadow) replayRound(ctx context.Context, tr *tracer, req int64, ls *live.Session, rd *mixedRound, firstPass bool) error {
	root := tr.begin("shadow.round", -1, req)
	defer tr.end(root)
	var steps []live.StepRequest
	if err := tr.call("live.decode_journal", root, req, func() (err error) {
		steps, err = live.DecodeJournal(rd.journal)
		return err
	}); err != nil {
		return err
	}
	if err := tr.call("live.apply", root, req, func() error {
		for _, st := range steps {
			if _, err := ls.Apply(st.Instance, st.Prod); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	prefix := ls.Current()
	if prefix.Epoch() != rd.epoch {
		return fmt.Errorf("shadow at epoch %d, round at %d", prefix.Epoch(), rd.epoch)
	}
	if err := sh.pointBatch(ctx, tr, root, req, rd.view, prefix, rd.pairs, rd.want, firstPass); err != nil {
		return err
	}
	idx := sh.buildIndex(tr, root, req, prefix)
	scan := core.NewQuerySession()
	defer scan.Close()
	return sh.setBatch(ctx, tr, root, req, rd.view, idx, scan, rd.texts, rd.qexprs)
}

// pointBatch answers pairs through the engine and through a single-thread
// QuerySession.DependsOn loop, checking both against want. Whichever runs
// second finds the labels in cache, so the order alternates from request to
// request.
func (sh *shadow) pointBatch(ctx context.Context, tr *tracer, root int32, req int64, view string, src *live.Prefix, pairs []fvl.ItemQuery, want []bool, countAllocs bool) error {
	vl, ok := sh.eng.Label(view)
	if !ok {
		return fmt.Errorf("shadow serves no view %q", view)
	}
	steps := []func() error{
		func() error { return sh.enginePoints(ctx, tr, root, req, view, src, pairs, want) },
		func() error { return sh.coreLoop(tr, root, req, vl, src, pairs, want) },
	}
	if req%2 == 0 {
		steps[0], steps[1] = steps[1], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if countAllocs && len(sh.allocs) < allocBatches {
		sh.allocs = append(sh.allocs, sh.countAllocs(vl, src, pairs))
	}
	return nil
}

func (sh *shadow) enginePoints(ctx context.Context, tr *tracer, root int32, req int64, view string, src *live.Prefix, pairs []fvl.ItemQuery, want []bool) error {
	eq := make([]engine.ItemQuery, len(pairs))
	for i, q := range pairs {
		eq[i] = engine.ItemQuery{From: q.From, To: q.To}
	}
	var res []engine.Result
	if err := tr.call("engine.point_batch", root, req, func() (err error) {
		res, err = sh.eng.DependsOnItemsBatchContext(ctx, view, src, eq)
		return err
	}); err != nil {
		return err
	}
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("engine point query %d: %w", i, r.Err)
		}
		if r.DependsOn != want[i] {
			return fmt.Errorf("engine point query %d answered %v, oracle says %v", i, r.DependsOn, want[i])
		}
	}
	return nil
}

func (sh *shadow) coreLoop(tr *tracer, root int32, req int64, vl *core.ViewLabel, src *live.Prefix, pairs []fvl.ItemQuery, want []bool) error {
	got := make([]bool, len(pairs))
	id := tr.begin("core.point_loop", root, req)
	for i, q := range pairs {
		d1, _ := src.Label(q.From)
		d2, _ := src.Label(q.To)
		ok, err := sh.qs.DependsOn(vl, d1, d2)
		if err != nil {
			tr.end(id)
			return err
		}
		got[i] = ok
	}
	tr.end(id)
	sh.pairs += len(pairs)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("core point query %d answered %v, oracle says %v", i, got[i], want[i])
		}
	}
	return nil
}

// allocBatches is how many point batches countAllocs repeats.
const allocBatches = 8

// countAllocs repeats a point loop untimed and returns its allocations per
// query. The loop draws scratch storage from sync.Pools, whose hit rate
// depends on when the collector last ran and on which P the goroutine runs;
// like testing.AllocsPerRun, the count is taken on one P, after two forced
// collections have emptied the pools and with the collector off, so it
// depends on the inputs alone.
func (sh *shadow) countAllocs(vl *core.ViewLabel, src *live.Prefix, pairs []fvl.ItemQuery) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m0 := mallocs()
	for _, q := range pairs {
		d1, _ := src.Label(q.From)
		d2, _ := src.Label(q.To)
		// The timed loop already checked these answers.
		_, _ = sh.qs.DependsOn(vl, d1, d2)
	}
	return float64(mallocs()-m0) / float64(len(pairs))
}

func (sh *shadow) buildIndex(tr *tracer, root int32, req int64, src *live.Prefix) *core.ItemIndex {
	var idx *core.ItemIndex
	_ = tr.call("core.index_build", root, req, func() error {
		idx = core.BuildItemIndex(src.Epoch(), src.Items(), src.Label)
		return nil
	})
	return idx
}

// setBatch answers the expressions through the engine and prices the
// planner: parse plus Compile of every expression, and Plan.Execute of every
// plan on the index with the scan session's plan cache. The order alternates
// like pointBatch's.
func (sh *shadow) setBatch(ctx context.Context, tr *tracer, root int32, req int64, view string, idx *core.ItemIndex, scan *core.QuerySession, texts []string, qexprs []*query.Expr) error {
	steps := []func() error{
		func() error { return sh.engineSets(ctx, tr, root, req, view, idx, qexprs) },
		func() error { return sh.compileScan(tr, root, req, view, idx, scan, texts) },
	}
	if req%2 == 0 {
		steps[0], steps[1] = steps[1], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (sh *shadow) engineSets(ctx context.Context, tr *tracer, root int32, req int64, view string, idx *core.ItemIndex, qexprs []*query.Expr) error {
	var res []engine.SetResult
	if err := tr.call("engine.set_batch", root, req, func() (err error) {
		res, err = sh.eng.SetQueryBatchContext(ctx, view, idx, qexprs)
		return err
	}); err != nil {
		return err
	}
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("engine set query %d: %w", i, r.Err)
		}
	}
	return nil
}

func (sh *shadow) compileScan(tr *tracer, root int32, req int64, view string, idx *core.ItemIndex, scan *core.QuerySession, texts []string) error {
	plans := make([]*query.Plan, len(texts))
	if err := tr.call("query.compile", root, req, func() error {
		for i, text := range texts {
			e, err := query.Parse(text)
			if err != nil {
				return err
			}
			if plans[i], err = query.Compile(sh.eng, view, e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	sh.exprs += len(texts)
	scan.EnsurePlan(idx)
	return tr.call("query.scan", root, req, func() error {
		for _, p := range plans {
			if _, err := p.Execute(scan, idx); err != nil {
				return err
			}
		}
		return nil
	})
}

// label prices Labeler.Label: the from-scratch labeling of a whole run.
func (sh *shadow) label(ctx context.Context, tr *tracer, req int64, r *fvl.Run) error {
	root := tr.begin("shadow.label", -1, req)
	defer tr.end(root)
	lab := sh.svc.NewLabeler()
	return tr.call("core.label", root, req, func() error {
		_, err := lab.Label(ctx, r)
		return err
	})
}

// setQueryLayerMetrics reports the query layers the shadow priced: the core
// loops, index builds and planner, and the engine as what its batches cost
// beyond them.
func setQueryLayerMetrics(rep *report, lt layerTotals, sh *shadow) {
	ns, us, ms := float64(time.Nanosecond), float64(time.Microsecond), float64(time.Millisecond)
	pairs, batches := float64(sh.pairs), float64(lt.n["engine.set_batch"])
	rep.set("core.point_ns_per_query", "ns", float64(lt.dur["core.point_loop"])/ns/pairs)
	rep.set("core.point_allocs_per_query", "count", median(sh.allocs))
	rep.set("core.index_build_ms", "ms", lt.perUnit("core.index_build", float64(lt.n["core.index_build"]), time.Millisecond))
	rep.set("query.compile_us_per_expr", "us", float64(lt.dur["query.compile"])/us/float64(sh.exprs))
	rep.set("query.scan_ms_per_batch", "ms", float64(lt.dur["query.scan"])/ms/float64(lt.n["query.scan"]))
	rep.set("engine.point_overhead_ns_per_query", "ns", float64(lt.dur["engine.point_batch"]-lt.dur["core.point_loop"])/ns/pairs)
	rep.set("engine.set_overhead_ms_per_batch", "ms", float64(lt.dur["engine.set_batch"]-lt.dur["query.compile"]-lt.dur["query.scan"])/ms/batches)
}
