package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/fvl"
	"repro/fvl/client"
	"repro/internal/live"
	"repro/internal/service"
)

// mixed-fvld: one fvl/client connection to an in-process fvld server on
// loopback. Each round sends a small chunk of Synthetic steps to an
// in-memory session, then asks one point batch and one set batch at the new
// epoch, so the per-epoch item index is rebuilt for every set batch. One
// operation is one round.
const (
	mixedViews    = 8
	mixedSessions = 4
	mixedItems    = 10000 // target items per session run: ~66 steps of ~156 items
	mixedChunk    = 4     // steps per POST
	mixedPairs    = 256   // point queries per batch
	mixedExprs    = 4     // set queries per batch
	mixedSetups   = 5
	tenant        = "bench"
	schemeName    = "synthetic"
)

type mixedRound struct {
	steps []fvl.StepRequest
	setExprs
	journal []byte // the chunk's FVLJRNL frames, as the client sends them
	epoch   uint64
	items   int
	view    string
	pairs   []fvl.ItemQuery
	want    []bool
	setWant []uint64
}

type mixedSession struct {
	run    *fvl.Run
	rounds []mixedRound
}

type mixed struct {
	svc      *fvl.Service // the service the last setup labeled
	spec     *fvl.Spec
	views    []*fvl.View
	sessions []mixedSession
	snapshot []byte // FVLSNAP of the labeled views, from the last setup
}

// mixedServer is one fvld instance on a loopback listener.
type mixedServer struct {
	srv  *service.Server
	ts   *httptest.Server
	c    *client.Client
	used bool // sessions were opened on it
}

func (s *mixedServer) close() error {
	if s == nil {
		return nil
	}
	s.ts.Close()
	return s.srv.Close()
}

// mixedPhase is what one measured phase observed.
type mixedPhase struct {
	rounds, ingest, point, set latencies
	heapMB                     float64
	gc, allocB                 uint64
	labeled                    int     // items the traced shadow labeled from scratch
	sh                         *shadow // the traced phase's layer mirror
}

func prepareMixed(ctx context.Context, cfg config, rep *report) (*mixed, error) {
	m := &mixed{spec: fvl.Synthetic(fvl.DefaultSyntheticParams())}
	for i := 0; i < mixedViews; i++ {
		v, err := greyView(m.spec, fmt.Sprintf("v%d", i), 8, viewSeed+int64(i))
		if err != nil {
			return nil, err
		}
		m.views = append(m.views, v)
	}
	oracleSvc, err := fvl.Open(ctx, m.spec, m.views, fvl.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	lab := oracleSvc.NewLabeler()
	rng := rand.New(rand.NewSource(cfg.seed))
	var bits []float64
	for s := 0; s < mixedSessions; s++ {
		r, err := fvl.RandomRun(m.spec, fvl.RunOptions{TargetSize: mixedItems, Seed: cfg.seed*1000 + int64(s)})
		if err != nil {
			return nil, err
		}
		sess := mixedSession{run: r}
		steps := r.StepLog()
		prefix := m.spec.NewRun()
		for at := 0; at < len(steps); at += mixedChunk {
			rd := mixedRound{steps: steps[at:min(at+mixedChunk, len(steps))]}
			for _, st := range rd.steps {
				if err := prefix.Apply(st.Instance, st.Production); err != nil {
					return nil, err
				}
			}
			if rd.journal, err = encodeJournal(rd.steps); err != nil {
				return nil, err
			}
			rd.epoch, rd.items = uint64(prefix.Steps()), prefix.Size()
			v := m.views[len(sess.rounds)%len(m.views)]
			rd.view = v.Name()
			// The oracle labels the prefix from scratch at this epoch.
			labels, err := lab.Label(ctx, prefix)
			if err != nil {
				return nil, err
			}
			ovl, _ := oracleSvc.ViewLabel(rd.view)
			if rd.pairs, rd.want, err = oraclePairs(prefix, v, labels, ovl, mixedPairs, rng); err != nil {
				return nil, err
			}
			vis, err := visibleItems(prefix, v)
			if err != nil {
				return nil, err
			}
			if rd.setExprs, err = newSetExprs(randomSetExprs(vis, mixedExprs, rng)); err != nil {
				return nil, err
			}
			for _, e := range rd.sets {
				h, err := e.oracleHash(labels, ovl, rd.items)
				if err != nil {
					return nil, err
				}
				rd.setWant = append(rd.setWant, h)
			}
			sess.rounds = append(sess.rounds, rd)
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
		m.sessions = append(m.sessions, sess)
	}
	setLabelBits(rep, bits)
	return m, nil
}

func encodeJournal(steps []fvl.StepRequest) ([]byte, error) {
	reqs := make([]live.StepRequest, len(steps))
	for i, st := range steps {
		reqs[i] = live.StepRequest{Instance: st.Instance, Prod: st.Production}
	}
	return live.EncodeJournal(reqs)
}

// startServer brings up an fvld server on loopback with one tenant.
func startServer(ctx context.Context) (*mixedServer, error) {
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	s := &mixedServer{srv: srv, ts: httptest.NewServer(srv.Handler())}
	s.c = client.New(s.ts.URL)
	if err := s.c.CreateTenant(ctx, tenant); err != nil {
		return nil, fmt.Errorf("creating tenant: %w (close: %v)", err, s.close())
	}
	return s, nil
}

// setup is the timed set-up: start the server, label the views (the static
// half of the paper's scheme) and register them as an FVLSNAP.
func (m *mixed) setup(ctx context.Context, tr *tracer, req int64) (*mixedServer, error) {
	root := tr.begin("path.setup", -1, req)
	defer tr.end(root)
	var s *mixedServer
	if err := tr.call("service.start", root, req, func() error {
		var err error
		s, err = startServer(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := tr.call("fvl.open", root, req, func() error {
		var err error
		m.svc, err = fvl.Open(ctx, m.spec, m.views, fvl.WithWorkers(1), fvl.WithSnapshot(&buf))
		return err
	})
	if err == nil {
		err = tr.call("service.register", root, req, func() error {
			_, err := s.c.RegisterScheme(ctx, tenant, schemeName, bytes.NewReader(buf.Bytes()))
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%w (close: %v)", err, s.close())
	}
	m.snapshot = buf.Bytes()
	return s, nil
}

// restart replaces the server with a fresh one holding the same scheme, so
// every pass starts from the same state instead of accumulating sessions.
func (m *mixed) restart(ctx context.Context, old *mixedServer) (*mixedServer, error) {
	if err := old.close(); err != nil {
		return nil, err
	}
	s, err := startServer(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := s.c.RegisterScheme(ctx, tenant, schemeName, bytes.NewReader(m.snapshot)); err != nil {
		return nil, fmt.Errorf("%w (close: %v)", err, s.close())
	}
	return s, nil
}

func runMixedFVLD(ctx context.Context, cfg config, rep *report) (err error) {
	m, err := prepareMixed(ctx, cfg, rep)
	if err != nil {
		return err
	}
	base := liveHeapMB()
	var s *mixedServer
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	setups := make([]float64, mixedSetups)
	for i := range setups {
		if err := s.close(); err != nil {
			return err
		}
		// Every set-up starts right after a collection, so none of them
		// pays for garbage the preparation or an earlier set-up left.
		runtime.GC()
		t := time.Now()
		s, err = m.setup(ctx, rep.tr, int64(-1-i))
		setups[i] = elapsed(t)
		if err := rep.op(err); err != nil {
			return err
		}
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("labelstore.snapshot_bytes", "B", float64(len(m.snapshot)))
	if cfg.trace {
		lt := rep.tr.totals()
		rep.set("service.register_ms", "ms", lt.perUnit("service.register", float64(lt.n["service.register"]), time.Millisecond))
		if err := traceLabelViews(ctx, rep, m.svc, m.views...); err != nil {
			return err
		}
	}

	plain, s, err := m.measure(ctx, cfg, rep, s, newTracer(false))
	if err != nil {
		return err
	}
	rep.set("cpu_ms_per_op", "ms", plain.rounds.cost())
	rep.set("alloc_kb_per_op", "KB", plain.rounds.allocKB())
	rep.set("heap_live_mb", "MB", plain.heapMB-base)
	setPathMetrics(rep, &plain.rounds, &plain.ingest, &plain.point, &plain.set)
	setRuntime(rep, plain.gc, plain.allocB)
	if !cfg.trace {
		return nil
	}

	traced, s, err := m.measure(ctx, cfg, rep, s, rep.tr)
	if err != nil {
		return err
	}
	lt := rep.tr.totals()
	steps := traced.ingest.units
	pairs := float64(traced.sh.pairs)
	batches := float64(lt.n["engine.set_batch"])
	us, ms := float64(time.Microsecond), float64(time.Millisecond)
	rep.set("service.wire_us_per_step", "us", float64(lt.dur["service.send_steps"]-lt.dur["live.decode_journal"]-lt.dur["live.apply"])/us/steps)
	rep.set("service.wire_us_per_point_query", "us", float64(lt.dur["service.point_batch"]-lt.dur["engine.point_batch"])/us/pairs)
	rep.set("service.wire_ms_per_set_batch", "ms", float64(lt.dur["service.set_batch"]-lt.dur["core.index_build"]-lt.dur["engine.set_batch"])/ms/batches)
	rep.set("live.journal_decode_us_per_step", "us", float64(lt.dur["live.decode_journal"])/us/steps)
	rep.set("live.apply_us_per_step", "us", float64(lt.dur["live.apply"])/us/steps)
	rep.set("core.label_us_per_item", "us", float64(lt.dur["core.label"])/us/float64(traced.labeled))
	setQueryLayerMetrics(rep, lt, traced.sh)
	rep.set("ledger.unaccounted_frac", "1", rep.tr.ledger())
	rep.set("trace.overhead_frac", "1", traced.rounds.cost()/plain.rounds.cost()-1)
	return nil
}

// measure runs whole passes — every session's run, round by round, on a
// fresh server — until the phase's time is up. The live heap is read after
// the first pass, with its sessions still open on the server: by then the
// benchmark's own latency samples are the same size in every run, and no
// restart has run yet (a server closed by a restart can stay reachable for
// a while, which made a heap read at the end differ by a whole server).
func (m *mixed) measure(ctx context.Context, cfg config, rep *report, s *mixedServer, tr *tracer) (*mixedPhase, *mixedServer, error) {
	ph := &mixedPhase{}
	if tr.on {
		sh, err := newShadow(m.snapshot, m.svc)
		if err != nil {
			return nil, s, err
		}
		ph.sh = sh
	}
	gc0, alloc0 := runtimeCounters()
	deadline := phaseDeadline(cfg)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if s.used {
			var err error
			if s, err = m.restart(ctx, s); err != nil {
				return nil, nil, err
			}
		}
		for si := range m.sessions {
			if err := m.session(ctx, rep, s, tr, ph, pass, si); err != nil {
				return nil, s, fmt.Errorf("pass %d session %d: %w", pass, si, err)
			}
		}
		if pass == 0 {
			ph.heapMB = liveHeapMB()
		}
	}
	gc1, alloc1 := runtimeCounters()
	ph.gc, ph.allocB = gc1-gc0, alloc1-alloc0
	return ph, s, nil
}

// session streams one run into a new remote session, one round per chunk.
func (m *mixed) session(ctx context.Context, rep *report, s *mixedServer, tr *tracer, ph *mixedPhase, pass, si int) error {
	sess := &m.sessions[si]
	s.used = true
	c := now()
	rs, _, err := s.c.OpenSession(ctx, tenant, schemeName, fmt.Sprintf("s%d", si), false)
	ph.rounds.busy(c.since())
	if err := rep.op(err); err != nil {
		return err
	}
	var ls *live.Session
	if ph.sh != nil {
		if ls, err = live.NewSession(ph.sh.snap.Scheme); err != nil {
			return err
		}
	}
	for ri := range sess.rounds {
		rd := &sess.rounds[ri]
		req := int64(pass)<<32 | int64(si)<<16 | int64(ri)
		root := tr.begin("path.round", -1, req)
		c := now()
		var res client.StepsResult
		err := tr.call("service.send_steps", root, req, func() (err error) {
			res, err = rs.SendSteps(ctx, rd.steps)
			return err
		})
		send := c.lap()
		if err := rep.op(err); err != nil {
			tr.end(root)
			return err
		}
		var pres []fvl.Result
		var pe, se uint64
		err = tr.call("service.point_batch", root, req, func() (err error) {
			pres, pe, err = rs.DependsOnBatch(ctx, rd.view, rd.pairs)
			return err
		})
		point := c.lap()
		if err := rep.op(err); err != nil {
			tr.end(root)
			return err
		}
		var sres []fvl.SetAnswer
		err = tr.call("service.set_batch", root, req, func() (err error) {
			sres, se, err = rs.QueryBatch(ctx, rd.view, rd.exprs)
			return err
		})
		set := c.lap()
		tr.end(root)
		if err := rep.op(err); err != nil {
			return err
		}
		ph.ingest.add(send, float64(len(rd.steps)))
		ph.point.add(point, mixedPairs)
		ph.set.add(set, mixedExprs)
		ph.rounds.add(send.plus(point).plus(set), 1)

		if res.Epoch != rd.epoch || res.Items != rd.items || pe != rd.epoch || se != rd.epoch {
			return fmt.Errorf("round %d: epochs %d/%d/%d and %d items, oracle prefix has epoch %d and %d items",
				ri, res.Epoch, pe, se, res.Items, rd.epoch, rd.items)
		}
		if err := sameAnswers(pres, rd.want); err != nil {
			return fmt.Errorf("round %d point batch: %w", ri, err)
		}
		if err := checkSetAnswers(sres, rd.setWant); err != nil {
			return fmt.Errorf("round %d set batch: %w", ri, err)
		}
		if ph.sh != nil {
			if err := ph.sh.replayRound(ctx, tr, req, ls, rd, pass == 0); err != nil {
				return fmt.Errorf("round %d shadow: %w", ri, err)
			}
		}
	}
	ph.rounds.closeWindow()
	ph.ingest.closeWindow()
	ph.point.closeWindow()
	ph.set.closeWindow()
	if ph.sh != nil {
		if err := ph.sh.label(ctx, tr, int64(pass)<<32|int64(si)<<16, sess.run); err != nil {
			return err
		}
		ph.labeled += sess.run.Size()
	}
	return nil
}
