package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/fvl"
	"repro/fvl/client"
	"repro/internal/core"
	"repro/internal/drl"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/workloads"
)

// Record is one machine-readable benchmark result, the row format of the
// BENCH_*.json perf trajectory: an experiment name plus the standard
// testing.B metrics.
type Record struct {
	Experiment  string  `json:"experiment"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// record runs one benchmark function under testing.Benchmark and captures
// its metrics. Allocation accounting is always on.
func record(name string, fn func(b *testing.B)) Record {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return Record{
		Experiment:  name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(max(res.N, 1)),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
	}
}

// Records measures the system's representative hot paths — run labeling
// (FVL and the DRL baseline), one query per view-label variant plus the
// matrix-free decoder, view labeling, batch serving, and snapshot save/load
// — and returns one Record per path. The cfg controls workload scale the
// same way it does for the printable experiments; use QuickConfig for smoke
// runs.
func Records(cfg Config) ([]Record, error) {
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		return nil, err
	}
	size := cfg.MultiViewRunSize
	r, labeler, _, err := labeledBioAIDRun(scheme, size, cfg.Seed+7100)
	if err != nil {
		return nil, err
	}
	v, err := workloads.RandomView(spec, workloads.ViewOptions{
		Name: "bench-json", Composites: 8, Mode: workloads.GreyBox, Rand: newRand(cfg.Seed + 7200),
	})
	if err != nil {
		return nil, err
	}
	queries := cfg.Queries
	if queries > 4096 {
		queries = 4096
	}
	pairs, err := visibleLabelPairs(labeler, r, v, queries, cfg.Seed+7300)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		name    string
		variant core.Variant
	}{
		{"query/space-efficient", core.VariantSpaceEfficient},
		{"query/materialized", core.VariantDefault},
		{"query/query-efficient", core.VariantQueryEfficient},
	}
	var out []Record

	out = append(out, record(fmt.Sprintf("label-run/fvl/%d", size), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.LabelRun(r); err != nil {
				b.Fatal(err)
			}
		}
	}))
	out = append(out, record(fmt.Sprintf("label-run/drl/%d", size), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := drl.LabelRun(v, r); err != nil {
				b.Fatal(err)
			}
		}
	}))
	out = append(out, record("label-view/query-efficient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.LabelView(v, core.VariantQueryEfficient); err != nil {
				b.Fatal(err)
			}
		}
	}))

	for _, vr := range variants {
		vl, err := scheme.LabelView(v, vr.variant)
		if err != nil {
			return nil, err
		}
		out = append(out, record(vr.name, func(b *testing.B) {
			s := core.NewQuerySession()
			defer s.Close()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := s.DependsOn(vl, p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Satellite record of the set-query PR: the same space-efficient point
	// query with a plan-scoped cache attached — the alloc delta against
	// "query/space-efficient" is the cost of rebuilding closures per query.
	vlse, err := scheme.LabelView(v, core.VariantSpaceEfficient)
	if err != nil {
		return nil, err
	}
	out = append(out, record("query/space-efficient-plan", func(b *testing.B) {
		s := core.NewQuerySession()
		defer s.Close()
		s.EnsurePlan(nil)
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := s.DependsOn(vlse, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Set queries: one deps(x) row scan vs the point-query loop it replaces,
	// per variant. The loop is the pre-planner way to materialize the same
	// answer: one point query per candidate item.
	idx := core.BuildItemIndex(0, labeler.Count(), labeler.Label)
	vlTarget, err := scheme.LabelView(v, core.VariantQueryEfficient)
	if err != nil {
		return nil, err
	}
	target := 0
	{
		s := core.NewQuerySession()
		s.EnsurePlan(idx)
		for x := 1; x <= idx.Items(); x++ {
			if _, err := s.DepsRow(vlTarget, idx, x); err == nil {
				target = x
				break
			}
		}
		s.Close()
	}
	if target == 0 {
		return nil, fmt.Errorf("bench: view %q hides every item", v.Name)
	}
	for _, vr := range variants {
		vl, err := scheme.LabelView(v, vr.variant)
		if err != nil {
			return nil, err
		}
		short := strings.TrimPrefix(vr.name, "query/")
		out = append(out, record("setquery/deps-loop/"+short, func(b *testing.B) {
			s := core.NewQuerySession()
			defer s.Close()
			lx, _ := labeler.Label(target)
			for i := 0; i < b.N; i++ {
				for y := 1; y <= idx.Items(); y++ {
					// Per-candidate errors are excluded items, not failures.
					ly, _ := labeler.Label(y)
					_, _ = s.DependsOn(vl, ly, lx)
				}
			}
		}))
		out = append(out, record("setquery/deps-row/"+short, func(b *testing.B) {
			s := core.NewQuerySession()
			defer s.Close()
			s.EnsurePlan(idx)
			for i := 0; i < b.N; i++ {
				if _, err := s.DepsRow(vl, idx, target); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	vlq, err := scheme.LabelView(v, core.VariantQueryEfficient)
	if err != nil {
		return nil, err
	}
	mf := vlq.WithMatrixFree()
	out = append(out, record("query/matrix-free", func(b *testing.B) {
		s := core.NewQuerySession()
		defer s.Close()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := s.DependsOn(mf, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}))

	eng := engine.New(cfg.Workers)
	batch := make([]engine.Query, len(pairs))
	for i, p := range pairs {
		batch[i] = engine.Query{D1: p[0], D2: p[1]}
	}
	out = append(out, record(fmt.Sprintf("engine/batch-%d/workers-%d", len(batch), eng.Workers()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results := eng.DependsOnBatch(vlq, batch)
			for j := range results {
				if results[j].Err != nil {
					b.Fatal(results[j].Err)
				}
			}
		}
	}))

	// Durable session recovery: resume a checkpointed session whose journal
	// tail is half the run — the path a restarting process pays.
	dir, err := os.MkdirTemp("", "fvl-bench-durable")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sessDir := filepath.Join(dir, "sess")
	ds, err := durable.Create(scheme, sessDir, durable.Options{SyncEvery: durable.SyncOnCheckpoint})
	if err != nil {
		return nil, err
	}
	half := len(r.Steps) / 2
	for i, st := range r.Steps {
		if _, err := ds.Live().Apply(st.Instance, st.Prod); err != nil {
			return nil, err
		}
		if i+1 == half {
			if err := ds.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := ds.Close(); err != nil {
		return nil, err
	}
	out = append(out, record(fmt.Sprintf("durable/resume/tail-%d", len(r.Steps)-half), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, err := durable.Recover(scheme, sessDir, durable.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Service boundary records of the fvld PR: the same workload through
	// fvl/client against a loopback fvld server — one full-run ingestion
	// through the chunked steps endpoint, and one batch-query POST per op on
	// the fully ingested session. The deltas against label-run and
	// engine/batch above are the price of the HTTP boundary.
	serviceRecords, err := serviceBoundaryRecords(cfg, size)
	if err != nil {
		return nil, err
	}
	out = append(out, serviceRecords...)

	return out, nil
}

func serviceBoundaryRecords(cfg Config, size int) ([]Record, error) {
	return serviceBoundaryRecordsContext(context.Background(), cfg, size)
}

func serviceBoundaryRecordsContext(ctx context.Context, cfg Config, size int) ([]Record, error) {
	spec := fvl.BioAID()
	v, err := fvl.RandomView(spec, fvl.ViewOptions{
		Name: "bench-json", Composites: 8, Mode: fvl.GreyBox, Seed: cfg.Seed + 7200,
	})
	if err != nil {
		return nil, err
	}
	fr, err := fvl.RandomRun(spec, fvl.RunOptions{TargetSize: size, Seed: cfg.Seed + 7100})
	if err != nil {
		return nil, err
	}
	svc, err := fvl.Open(ctx, spec, []*fvl.View{v})
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	if err := c.CreateTenant(ctx, "bench"); err != nil {
		return nil, err
	}
	if _, err := c.RegisterService(ctx, "bench", "bioaid", svc); err != nil {
		return nil, err
	}
	steps := fr.StepLog()
	const chunk = 64
	ingest := func(session string) error {
		sess, _, err := c.OpenSession(ctx, "bench", "bioaid", session, false)
		if err != nil {
			return err
		}
		for at := 0; at < len(steps); at += chunk {
			end := min(at+chunk, len(steps))
			if _, err := sess.SendSteps(ctx, steps[at:end]); err != nil {
				return err
			}
		}
		return nil
	}

	var out []Record
	runs := 0
	out = append(out, record(fmt.Sprintf("service/ingest-run/%d", len(steps)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runs++
			if err := ingest(fmt.Sprintf("ingest-%d", runs)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	sess, st, err := c.OpenSession(ctx, "bench", "bioaid", "query", false)
	if err != nil {
		return nil, err
	}
	if st.Epoch == 0 {
		if err := ingest("query"); err != nil {
			return nil, err
		}
		if st, err = sess.Status(ctx); err != nil {
			return nil, err
		}
	}
	qn := cfg.Queries
	if qn > 1024 {
		qn = 1024
	}
	rng := newRand(cfg.Seed + 7400)
	batch := make([]fvl.ItemQuery, qn)
	for i := range batch {
		batch[i] = fvl.ItemQuery{From: 1 + rng.Intn(st.Items), To: 1 + rng.Intn(st.Items)}
	}
	out = append(out, record(fmt.Sprintf("service/depends-batch-%d", qn), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.DependsOnBatch(ctx, v.Name(), batch); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return out, nil
}

// WriteRecords writes the records as indented JSON, the on-disk format of
// the BENCH_*.json trajectory files.
func WriteRecords(w io.Writer, records []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
