package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/fvl"
)

// ingest-durable: one producer streams BioAID runs through
// DurableSession.Apply, each run into a fresh directory under the fixed flush
// policy, checkpointing every checkpointEvery steps and closing at the end.
// No query layer runs. One operation is one acknowledged step.
const (
	ingestRuns   = 8
	ingestItems  = 20000 // target items per run: about 2.5k steps of ~8 items
	ingestSetups = 31
	ingestPairs  = 64 // oracle-checked point queries per resumed run
)

type ingestInput struct {
	run    *fvl.Run
	steps  []fvl.StepRequest
	oracle *fvl.RunLabels
	pairs  []fvl.ItemQuery
	want   []bool
}

type ingest struct {
	spec   *fvl.Spec
	view   *fvl.View
	inputs []ingestInput
}

// ingestPhase is what one measured pass over the inputs observed.
type ingestPhase struct {
	acks       latencies
	diskBytes  int64 // session directory bytes after Close, first pass
	diskSteps  int
	ckptBytes  []float64 // newest checkpoint file per run, first pass
	heapMB     float64
	gc, allocB uint64
}

func prepareIngest(ctx context.Context, cfg config, rep *report) (*ingest, error) {
	spec := fvl.BioAID()
	view, err := greyView(spec, "ingest", 8, viewSeed)
	if err != nil {
		return nil, err
	}
	// The oracle is a separate service: its scheme, labels and answers share
	// no objects with the system under test.
	oracleSvc, err := fvl.Open(ctx, spec, []*fvl.View{view}, fvl.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	ovl, _ := oracleSvc.ViewLabel(view.Name())
	lab := oracleSvc.NewLabeler()
	w := &ingest{spec: spec, view: view}
	var bits []float64
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < ingestRuns; i++ {
		r, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: ingestItems, Seed: cfg.seed*1000 + int64(i)})
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
		in := ingestInput{run: r, steps: r.StepLog(), oracle: labels}
		in.pairs, in.want, err = oraclePairs(r, view, labels, ovl, ingestPairs, rng)
		if err != nil {
			return nil, err
		}
		w.inputs = append(w.inputs, in)
	}
	setLabelBits(rep, bits)
	return w, nil
}

func runIngestDurable(ctx context.Context, cfg config, rep *report) error {
	w, err := prepareIngest(ctx, cfg, rep)
	if err != nil {
		return err
	}
	base := liveHeapMB()

	var svc *fvl.Service
	setups := make([]float64, ingestSetups)
	for i := range setups {
		// Every set-up starts right after a collection, so none of them
		// pays for garbage the preparation or an earlier set-up left.
		runtime.GC()
		req := int64(-1 - i)
		root := rep.tr.begin("path.setup", -1, req)
		t := time.Now()
		err := rep.tr.call("fvl.open", root, req, func() error {
			var err error
			svc, err = fvl.Open(ctx, w.spec, []*fvl.View{w.view}, fvl.WithWorkers(1))
			return err
		})
		setups[i] = elapsed(t)
		rep.tr.end(root)
		if err := rep.op(err); err != nil {
			return err
		}
	}
	rep.set("setup_s", "s", median(setups))
	if cfg.trace {
		if err := traceLabelViews(ctx, rep, svc, w.view); err != nil {
			return err
		}
	}

	plain, err := w.measure(ctx, cfg, rep, svc, newTracer(false))
	if err != nil {
		return err
	}
	plain.heapMB -= base
	rep.set("cpu_ms_per_op", "ms", plain.acks.cost())
	rep.set("alloc_kb_per_op", "KB", plain.acks.allocKB())
	rep.set("heap_live_mb", "MB", plain.heapMB)
	setPathMetrics(rep, &plain.acks, &plain.acks, nil, nil)
	rep.set("path.disk_bytes_per_step", "B", float64(plain.diskBytes)/float64(plain.diskSteps))
	rep.set("labelstore.checkpoint_bytes", "B", median(plain.ckptBytes))
	setRuntime(rep, plain.gc, plain.allocB)
	if !cfg.trace {
		return nil
	}

	traced, err := w.measure(ctx, cfg, rep, svc, rep.tr)
	if err != nil {
		return err
	}
	lt := rep.tr.totals()
	steps := float64(lt.n["durable.apply"])
	rep.set("live.apply_us_per_step", "us", lt.perUnit("live.apply", float64(lt.n["live.apply"]), time.Microsecond))
	rep.set("durable.append_us_per_step", "us", float64(lt.dur["durable.apply"]-lt.dur["live.apply"])/float64(time.Microsecond)/steps)
	rep.set("durable.checkpoint_ms", "ms", lt.perUnit("durable.checkpoint", float64(lt.n["durable.checkpoint"]), time.Millisecond))
	rep.set("core.label_us_per_item", "us", lt.perUnit("core.label", float64(labelItems(w.inputs, lt.n["core.label"])), time.Microsecond))
	rep.set("ledger.unaccounted_frac", "1", rep.tr.ledger())
	rep.set("trace.overhead_frac", "1", traced.acks.cost()/plain.acks.cost()-1)
	return nil
}

// measure runs the inputs round-robin, one fresh directory per run, for the
// configured time (and at least one whole pass). Every closed directory is
// resumed and checked against the oracle before it is deleted. The live
// heap is read once, at the end of the first pass, with the pass's last
// directory resumed: the benchmark's own latency samples grow with the
// run's length, and by then they are the same size in every run.
func (w *ingest) measure(ctx context.Context, cfg config, rep *report, svc *fvl.Service, tr *tracer) (*ingestPhase, error) {
	ph := &ingestPhase{}
	gc0, alloc0 := runtimeCounters()
	phaseDir := filepath.Join(cfg.work, fmt.Sprintf("ingest-%v", tr.on))
	deadline := phaseDeadline(cfg)
	for i := 0; i < len(w.inputs) || time.Now().Before(deadline); i++ {
		in := &w.inputs[i%len(w.inputs)]
		dir := filepath.Join(phaseDir, fmt.Sprintf("run-%d", i))
		if err := w.ingestRun(rep, svc, tr, in, dir, int64(i), ph); err != nil {
			return nil, err
		}
		if tr.on {
			if err := w.shadowRun(ctx, svc, tr, in, int64(i)); err != nil {
				return nil, err
			}
		}
		firstPass := i < len(w.inputs)
		if firstPass {
			n, ckpt, err := dirBytes(dir)
			if err != nil {
				return nil, err
			}
			ph.diskBytes += n
			ph.diskSteps += len(in.steps)
			ph.ckptBytes = append(ph.ckptBytes, float64(ckpt))
		}
		if err := w.check(svc, in, dir, firstPass); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		if i == len(w.inputs)-1 {
			ds, err := svc.ResumeDurable(dir, fvl.WithSyncEvery(syncEvery))
			if err != nil {
				return nil, err
			}
			ph.heapMB = liveHeapMB()
			if err := ds.Close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	gc1, alloc1 := runtimeCounters()
	ph.gc, ph.allocB = gc1-gc0, alloc1-alloc0
	return ph, nil
}

// ingestRun is the measured path: open, apply every step (checkpointing on
// the fixed interval), close.
func (w *ingest) ingestRun(rep *report, svc *fvl.Service, tr *tracer, in *ingestInput, dir string, req int64, ph *ingestPhase) error {
	root := tr.begin("path.ingest_run", -1, req)
	defer tr.end(root)
	run := now()
	defer func() {
		// Steps are too short to read the CPU clock around; the run's CPU
		// time and allocations go to the window as a whole.
		s := run.since()
		ph.acks.busy(sample{cpu: s.cpu, alloc: s.alloc})
		ph.acks.closeWindow()
	}()
	t := time.Now()
	var ds *fvl.DurableSession
	err := tr.call("durable.open", root, req, func() error {
		var err error
		ds, err = svc.OpenDurable(dir, fvl.WithSyncEvery(syncEvery))
		return err
	})
	ph.acks.busy(sample{wall: time.Since(t)})
	if err := rep.op(err); err != nil {
		return err
	}
	for j, st := range in.steps {
		id := tr.begin("durable.apply", root, req)
		t := time.Now()
		_, err := ds.Apply(st.Instance, st.Production)
		d := time.Since(t)
		tr.end(id)
		if err := rep.op(err); err != nil {
			return err
		}
		ph.acks.add(sample{wall: d}, 1)
		if (j+1)%checkpointEvery == 0 {
			t := time.Now()
			err := tr.call("durable.checkpoint", root, req, ds.Checkpoint)
			ph.acks.busy(sample{wall: time.Since(t)})
			if err := rep.op(err); err != nil {
				return err
			}
		}
	}
	t = time.Now()
	err = tr.call("durable.close", root, req, ds.Close)
	ph.acks.busy(sample{wall: time.Since(t)})
	return rep.op(err)
}

// shadowRun prices the layers under the durable path on the same steps: a
// journal-free live session's Apply, and a from-scratch Labeler.Label.
func (w *ingest) shadowRun(ctx context.Context, svc *fvl.Service, tr *tracer, in *ingestInput, req int64) error {
	root := tr.begin("shadow.ingest_run", -1, req)
	defer tr.end(root)
	ls, err := svc.OpenLive()
	if err != nil {
		return err
	}
	for _, st := range in.steps {
		id := tr.begin("live.apply", root, req)
		_, err := ls.Apply(st.Instance, st.Production)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	lab := svc.NewLabeler()
	return tr.call("core.label", root, req, func() error {
		_, err := lab.Label(ctx, in.run)
		return err
	})
}

// check resumes a closed directory and holds it to the oracle: the resumed
// epoch is the pre-close one, recovery replayed exactly the tail past the
// last checkpoint, and labels and answers match the from-scratch labeling.
// full compares every label; otherwise a fixed sample.
func (w *ingest) check(svc *fvl.Service, in *ingestInput, dir string, full bool) error {
	ds, err := svc.ResumeDurable(dir, fvl.WithSyncEvery(syncEvery))
	if err != nil {
		return err
	}
	defer ds.Close()
	if got, want := ds.Epoch(), uint64(len(in.steps)); got != want {
		return fmt.Errorf("resumed at epoch %d, closed at %d", got, want)
	}
	lastCkpt := len(in.steps) / checkpointEvery * checkpointEvery
	if got := ds.Recovery().ReplayedSteps; got != len(in.steps)-lastCkpt {
		return fmt.Errorf("recovery replayed %d steps, want %d", got, len(in.steps)-lastCkpt)
	}
	step := 1
	if !full {
		step = 97
	}
	if err := sameLabels(ds.Session, in.oracle, in.run.Size(), step); err != nil {
		return err
	}
	res, _, err := ds.DependsOnBatch(context.Background(), w.view.Name(), in.pairs)
	if err != nil {
		return err
	}
	return sameAnswers(res, in.want)
}

// labelItems is the number of items the shadow labeled: n whole passes over
// the inputs, then a prefix of the next.
func labelItems(inputs []ingestInput, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += inputs[i%len(inputs)].run.Size()
	}
	return total
}

// dirBytes sums the sizes of the regular files of a session directory and
// reports the newest checkpoint file's size.
func dirBytes(dir string) (total, ckpt int64, err error) {
	var newest string
	err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if name := d.Name(); strings.HasPrefix(name, "ckpt-") && name > newest {
			newest, ckpt = name, info.Size()
		}
		return nil
	})
	return total, ckpt, err
}
