package live_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/workloads"
)

// probe derives the probe run of the recovery measurements: a complete
// BioAID run grown to 20,000 items from seed 1000 (20,049 items in 2,501
// steps over 12,523 instances), and its step journal.
func probe(tb testing.TB) (*core.Scheme, *run.Run, []byte) {
	tb.Helper()
	spec := workloads.BioAID()
	scheme, err := core.NewScheme(spec)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := workloads.RandomRun(spec, workloads.RunOptions{TargetSize: 20000, Rand: rand.New(rand.NewSource(1000))})
	if err != nil {
		tb.Fatal(err)
	}
	steps := make([]live.StepRequest, len(r.Steps))
	for i, st := range r.Steps {
		steps[i] = live.StepRequest{Instance: st.Instance, Prod: st.Prod}
	}
	journal, err := live.EncodeJournal(steps)
	if err != nil {
		tb.Fatal(err)
	}
	return scheme, r, journal
}

// retained returns the heap bytes build's result keeps alive: live heap
// after two collections, with the result held, less the same before build.
func retained(tb testing.TB, build func() (any, error)) int64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := build()
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestResumedSessionRetainsLabels: a session holds the labels and the
// derivation's frontier, not the run, so a session resumed from the probe
// run's journal retains at most 1.1 times what Scheme.LabelRun's labeler of
// the same run retains.
func TestResumedSessionRetainsLabels(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts heap measurements")
	}
	scheme, r, journal := probe(t)
	resume := func() (any, error) { return live.Resume(scheme, bytes.NewReader(journal)) }
	// The scheme compiles a production on its first application; compile
	// them all before measuring, since sessions share them.
	if _, err := resume(); err != nil {
		t.Fatal(err)
	}
	labeler := retained(t, func() (any, error) { return scheme.LabelRun(r) })
	session := retained(t, resume)
	t.Logf("probe run of %d items: labeler retains %d bytes (%.1f B/item), resumed session %d (%.1f B/item, %.2fx)",
		r.Size(), labeler, float64(labeler)/float64(r.Size()), session, float64(session)/float64(r.Size()), float64(session)/float64(labeler))
	if float64(session) > 1.1*float64(labeler) {
		t.Fatalf("resumed session retains %d bytes, over 1.1x the labeler's %d", session, labeler)
	}
}

// TestRestoreContextCancels: restoring the probe run's steps under a
// canceled context fails with ErrCanceled, and under a live one restores
// every item.
func TestRestoreContextCancels(t *testing.T) {
	scheme, r, journal := probe(t)
	steps, err := live.DecodeJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := live.RestoreContext(canceled, scheme, steps); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("restore under a canceled context: got %v, want ErrCanceled", err)
	}
	s, err := live.RestoreContext(context.Background(), scheme, steps)
	if err != nil {
		t.Fatal(err)
	}
	if s.Items() != r.Size() || s.Frontier() != nil {
		t.Fatalf("restored %d items with frontier %v; the run has %d items and is complete", s.Items(), s.Frontier(), r.Size())
	}
}

// BenchmarkResume prices recovering the probe run per layer: decoding its
// journal, deriving its steps, deriving and labeling them (Restore), and
// the whole of Resume.
func BenchmarkResume(b *testing.B) {
	scheme, _, journal := probe(b)
	steps, err := live.DecodeJournal(journal)
	if err != nil {
		b.Fatal(err)
	}
	// The scheme compiles a production on its first application; compile
	// them all first, so a single pass (-benchtime=1x) prices the steady
	// state too.
	if _, err := live.Restore(scheme, steps); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := live.DecodeJournal(journal); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			d := scheme.NewDeriver()
			for _, req := range steps {
				if _, err := d.Apply(req.Instance, req.Prod); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := live.Restore(scheme, steps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resume", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := live.Resume(scheme, bytes.NewReader(journal)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
