package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/fvl"
	"repro/internal/core"
	"repro/internal/labelstore"
	"repro/internal/live"
)

// query-space: restart-then-query over the space-efficient variant. An
// untimed preparation writes a snapshot and qsRuns durable BioAID session
// directories (each ending on a journal tail past its last checkpoint); the
// timed setup reopens them all. A single querier then runs rounds of one
// 4096-pair point batch and one set batch against the fixed epochs. One
// operation is one round.
const (
	qsViews          = 2
	qsRuns           = 4
	qsItems          = 20000
	qsRoundsPerRun   = 16 // distinct rounds per session; the measured loop cycles them
	qsWindow         = 16 // rounds per throughput window
	qsPairs          = 4096
	qsExprs          = 4
	qsSetups         = 5
	qsPreClosePairs  = 256
	qsSnapshotFile   = "views.fvlsnap"
	qsSessionDirName = "session-%d"
)

type qsRound struct {
	run   int
	view  string
	pairs []fvl.ItemQuery
	want  []bool
	setExprs
	setWant []uint64
}

type qsRun struct {
	run      *fvl.Run
	steps    []fvl.StepRequest
	dir      string
	tail     int // journal steps past the last checkpoint
	preClose []fvl.Result
	prePairs []fvl.ItemQuery
}

type querySpace struct {
	labelSvc *fvl.Service // wrote the snapshot; shares the runs' Spec
	spec     *fvl.Spec
	views    []*fvl.View
	snapPath string
	runs     []qsRun
	rounds   []qsRound
}

// qsState is what a setup opened.
type qsState struct {
	svc      *fvl.Service
	sessions []*fvl.DurableSession
}

func (st *qsState) close() error {
	var first error
	for _, s := range st.sessions {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type qsPhase struct {
	rounds, point, set latencies
	heapMB             float64
	gc, allocB         uint64
	sh                 *shadow
}

func prepareQuerySpace(ctx context.Context, cfg config, rep *report) (*querySpace, error) {
	q := &querySpace{spec: fvl.BioAID(), snapPath: filepath.Join(cfg.work, qsSnapshotFile)}
	for i := 0; i < qsViews; i++ {
		v, err := greyView(q.spec, fmt.Sprintf("v%d", i), 8, viewSeed+int64(i))
		if err != nil {
			return nil, err
		}
		q.views = append(q.views, v)
	}
	var snap bytes.Buffer
	svc, err := fvl.Open(ctx, q.spec, q.views, fvl.WithWorkers(1), fvl.WithVariant(fvl.SpaceEfficient), fvl.WithSnapshot(&snap))
	if err != nil {
		return nil, err
	}
	q.labelSvc = svc
	if err := fvl.WriteFileAtomic(q.snapPath, func(w io.Writer) error {
		_, err := w.Write(snap.Bytes())
		return err
	}); err != nil {
		return nil, err
	}
	oracleSvc, err := fvl.Open(ctx, q.spec, q.views, fvl.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	lab := oracleSvc.NewLabeler()
	rng := rand.New(rand.NewSource(cfg.seed))
	var bits []float64
	var diskBytes int64
	var diskSteps int
	var ckpts []float64
	for i := 0; i < qsRuns; i++ {
		r, err := fvl.RandomRun(q.spec, fvl.RunOptions{TargetSize: qsItems, Seed: cfg.seed*1000 + int64(i)})
		if err != nil {
			return nil, err
		}
		labels, err := lab.Label(ctx, r)
		if err != nil {
			return nil, err
		}
		for id := 1; id <= r.Size(); id++ {
			if b, ok := labels.SizeBits(id); ok {
				bits = append(bits, float64(b))
			}
		}
		qr := qsRun{run: r, steps: r.StepLog(), dir: filepath.Join(cfg.work, fmt.Sprintf(qsSessionDirName, i))}
		ovl0, _ := oracleSvc.ViewLabel(q.views[0].Name())
		var want []bool
		if qr.prePairs, want, err = oraclePairs(r, q.views[0], labels, ovl0, qsPreClosePairs, rng); err != nil {
			return nil, err
		}
		if err := q.writeSession(ctx, svc, &qr); err != nil {
			return nil, err
		}
		if err := sameAnswers(qr.preClose, want); err != nil {
			return nil, fmt.Errorf("session %d before close: %w", i, err)
		}
		n, ckpt, err := dirBytes(qr.dir)
		if err != nil {
			return nil, err
		}
		diskBytes += n
		diskSteps += len(qr.steps)
		ckpts = append(ckpts, float64(ckpt))
		q.runs = append(q.runs, qr)

		for k := 0; k < qsRoundsPerRun; k++ {
			v := q.views[k%len(q.views)]
			ovl, _ := oracleSvc.ViewLabel(v.Name())
			rd := qsRound{run: i, view: v.Name()}
			if rd.pairs, rd.want, err = oraclePairs(r, v, labels, ovl, qsPairs, rng); err != nil {
				return nil, err
			}
			vis, err := visibleItems(r, v)
			if err != nil {
				return nil, err
			}
			if rd.setExprs, err = newSetExprs(randomSetExprs(vis, qsExprs, rng)); err != nil {
				return nil, err
			}
			for _, e := range rd.sets {
				h, err := e.oracleHash(labels, ovl, r.Size())
				if err != nil {
					return nil, err
				}
				rd.setWant = append(rd.setWant, h)
			}
			q.rounds = append(q.rounds, rd)
		}
	}
	// Interleave the sessions, so consecutive rounds touch different runs.
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(q.rounds), func(i, j int) { q.rounds[i], q.rounds[j] = q.rounds[j], q.rounds[i] })
	setLabelBits(rep, bits)
	rep.set("path.disk_bytes_per_step", "B", float64(diskBytes)/float64(diskSteps))
	rep.set("labelstore.checkpoint_bytes", "B", median(ckpts))
	rep.set("labelstore.snapshot_bytes", "B", float64(snap.Len()))
	return q, nil
}

// writeSession applies a run to a new durable directory under the shared
// flush policy, answers the pre-close sample and closes it.
func (q *querySpace) writeSession(ctx context.Context, svc *fvl.Service, qr *qsRun) error {
	ds, err := svc.OpenDurable(qr.dir, fvl.WithSyncEvery(syncEvery))
	if err != nil {
		return err
	}
	for j, st := range qr.steps {
		if _, err := ds.Apply(st.Instance, st.Production); err != nil {
			return fmt.Errorf("%w (close: %v)", err, ds.Close())
		}
		if (j+1)%checkpointEvery == 0 {
			if err := ds.Checkpoint(); err != nil {
				return fmt.Errorf("%w (close: %v)", err, ds.Close())
			}
		}
	}
	qr.tail = len(qr.steps) - ds.LastCheckpoint()
	if qr.preClose, _, err = ds.DependsOnBatch(ctx, q.views[0].Name(), qr.prePairs); err != nil {
		return fmt.Errorf("%w (close: %v)", err, ds.Close())
	}
	return ds.Close()
}

// setup is the timed set-up: open the snapshot and resume every session.
func (q *querySpace) setup(tr *tracer, req int64) (*qsState, error) {
	root := tr.begin("path.setup", -1, req)
	defer tr.end(root)
	st := &qsState{}
	if err := tr.call("fvl.open_snapshot", root, req, func() (err error) {
		st.svc, err = fvl.OpenSnapshotFile(q.snapPath, fvl.WithWorkers(1))
		return err
	}); err != nil {
		return nil, err
	}
	for i := range q.runs {
		var ds *fvl.DurableSession
		if err := tr.call("durable.recover", root, req, func() (err error) {
			ds, err = st.svc.ResumeDurable(q.runs[i].dir, fvl.WithSyncEvery(syncEvery))
			return err
		}); err != nil {
			return nil, fmt.Errorf("%w (close: %v)", err, st.close())
		}
		st.sessions = append(st.sessions, ds)
	}
	return st, nil
}

// check holds resumed sessions to their pre-close state: the same epoch,
// a replay of exactly the journal tail, and the same answers.
func (q *querySpace) check(ctx context.Context, st *qsState) error {
	for i, ds := range st.sessions {
		qr := &q.runs[i]
		if got := ds.Epoch(); got != uint64(len(qr.steps)) {
			return fmt.Errorf("session %d resumed at epoch %d, closed at %d", i, got, len(qr.steps))
		}
		if got := ds.Recovery().ReplayedSteps; got != qr.tail {
			return fmt.Errorf("session %d replayed %d steps, journal tail is %d", i, got, qr.tail)
		}
		res, _, err := ds.DependsOnBatch(ctx, q.views[0].Name(), qr.prePairs)
		if err != nil {
			return err
		}
		for j := range res {
			if res[j] != qr.preClose[j] {
				return fmt.Errorf("session %d query %d: resumed answer %v differs from pre-close %v", i, j, res[j], qr.preClose[j])
			}
		}
	}
	return nil
}

func runQuerySpace(ctx context.Context, cfg config, rep *report) (err error) {
	q, err := prepareQuerySpace(ctx, cfg, rep)
	if err != nil {
		return err
	}
	base := liveHeapMB()
	var st *qsState
	setups := make([]float64, qsSetups)
	for i := range setups {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		// Every set-up starts right after a collection, so none of them
		// pays for garbage the preparation or an earlier set-up left.
		runtime.GC()
		t := time.Now()
		st, err = q.setup(rep.tr, int64(-1-i))
		setups[i] = elapsed(t)
		if err := rep.op(err); err != nil {
			return err
		}
		if err := q.check(ctx, st); err != nil {
			return fmt.Errorf("setup %d: %w", i, err)
		}
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
	}()
	rep.set("setup_s", "s", median(setups))
	replayed := 0
	for _, qr := range q.runs {
		replayed += qr.tail
	}
	rep.set("durable.replayed_steps", "count", float64(replayed))
	if cfg.trace {
		lt := rep.tr.totals()
		rep.set("durable.recover_ms", "ms", lt.perUnit("durable.recover", float64(lt.n["durable.recover"]), time.Millisecond))
		t := time.Now()
		if _, err := labelstore.LoadFile(q.snapPath); err != nil {
			return err
		}
		rep.set("labelstore.snapshot_load_ms", "ms", float64(time.Since(t))/float64(time.Millisecond))
	}

	plain, err := q.measure(ctx, cfg, rep, st, newTracer(false))
	if err != nil {
		return err
	}
	rep.set("cpu_ms_per_op", "ms", plain.rounds.cost())
	rep.set("alloc_kb_per_op", "KB", plain.rounds.allocKB())
	rep.set("heap_live_mb", "MB", plain.heapMB-base)
	setPathMetrics(rep, &plain.rounds, nil, &plain.point, &plain.set)
	setRuntime(rep, plain.gc, plain.allocB)
	if !cfg.trace {
		return nil
	}

	traced, err := q.measure(ctx, cfg, rep, st, rep.tr)
	if err != nil {
		return err
	}
	lt := rep.tr.totals()
	setQueryLayerMetrics(rep, lt, traced.sh)
	rep.set("core.label_us_per_item", "us", lt.perUnit("core.label", float64(q.labeledItems()), time.Microsecond))
	rep.set("ledger.unaccounted_frac", "1", rep.tr.ledger())
	rep.set("trace.overhead_frac", "1", traced.rounds.cost()/plain.rounds.cost()-1)
	return nil
}

func (q *querySpace) labeledItems() int {
	n := 0
	for _, qr := range q.runs {
		n += qr.run.Size()
	}
	return n
}

// measure cycles through the rounds in whole passes until the phase's time
// is up. The live heap is read after the first pass, while the benchmark's
// own latency samples are the same size in every run. A traced phase first
// builds its shadow: a journal-free live
// session per run at the same epoch, one item index and one warm scan
// session per run, as the real path caches them.
func (q *querySpace) measure(ctx context.Context, cfg config, rep *report, st *qsState, tr *tracer) (*qsPhase, error) {
	ph := &qsPhase{}
	var prefixes []*live.Prefix
	var idxs []*core.ItemIndex
	var scans []*core.QuerySession
	if tr.on {
		snapshot, err := os.ReadFile(q.snapPath)
		if err != nil {
			return nil, err
		}
		if ph.sh, err = newShadow(snapshot, q.labelSvc); err != nil {
			return nil, err
		}
		for i, qr := range q.runs {
			ls, err := live.NewSession(ph.sh.snap.Scheme)
			if err != nil {
				return nil, err
			}
			for _, s := range qr.steps {
				if _, err := ls.Apply(s.Instance, s.Production); err != nil {
					return nil, err
				}
			}
			prefixes = append(prefixes, ls.Current())
			root := tr.begin("shadow.setup", -1, int64(i))
			idxs = append(idxs, ph.sh.buildIndex(tr, root, int64(i), ls.Current()))
			tr.end(root)
			scans = append(scans, core.NewQuerySession())
			if err := ph.sh.label(ctx, tr, int64(i), qr.run); err != nil {
				return nil, err
			}
		}
		defer func() {
			for _, s := range scans {
				s.Close()
			}
		}()
	}
	gc0, alloc0 := runtimeCounters()
	deadline := phaseDeadline(cfg)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for ri := range q.rounds {
			rd := &q.rounds[ri]
			ds := st.sessions[rd.run]
			req := int64(pass)<<32 | int64(ri)
			root := tr.begin("path.round", -1, req)
			c := now()
			var pres []fvl.Result
			err := tr.call("fvl.point_batch", root, req, func() (err error) {
				pres, _, err = ds.DependsOnBatch(ctx, rd.view, rd.pairs)
				return err
			})
			point := c.lap()
			if err := rep.op(err); err != nil {
				tr.end(root)
				return nil, err
			}
			var sres []fvl.SetAnswer
			err = tr.call("fvl.set_batch", root, req, func() (err error) {
				sres, _, err = ds.QueryBatch(ctx, rd.view, rd.exprs)
				return err
			})
			set := c.lap()
			tr.end(root)
			if err := rep.op(err); err != nil {
				return nil, err
			}
			ph.point.add(point, qsPairs)
			ph.set.add(set, qsExprs)
			ph.rounds.add(point.plus(set), 1)
			if (ri+1)%qsWindow == 0 {
				ph.rounds.closeWindow()
				ph.point.closeWindow()
				ph.set.closeWindow()
			}
			if err := sameAnswers(pres, rd.want); err != nil {
				return nil, fmt.Errorf("round %d point batch: %w", ri, err)
			}
			if err := checkSetAnswers(sres, rd.setWant); err != nil {
				return nil, fmt.Errorf("round %d set batch: %w", ri, err)
			}
			if ph.sh != nil {
				sroot := tr.begin("shadow.round", -1, req)
				err := ph.sh.pointBatch(ctx, tr, sroot, req, rd.view, prefixes[rd.run], rd.pairs, rd.want, pass == 0)
				if err == nil {
					// A throwaway build prices the index at this epoch; the
					// scan runs on the run's cached index, as the real path does.
					ph.sh.buildIndex(tr, sroot, req, prefixes[rd.run])
					err = ph.sh.setBatch(ctx, tr, sroot, req, rd.view, idxs[rd.run], scans[rd.run], rd.texts, rd.qexprs)
				}
				tr.end(sroot)
				if err != nil {
					return nil, fmt.Errorf("round %d shadow: %w", ri, err)
				}
			}
		}
		if pass == 0 {
			ph.heapMB = liveHeapMB()
		}
	}
	gc1, alloc1 := runtimeCounters()
	ph.gc, ph.allocB = gc1-gc0, alloc1-alloc0
	return ph, nil
}
