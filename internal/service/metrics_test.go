package service

// Locks for the metrics-correctness fixes: a golden test pinning the exact
// Prometheus text exposition (including the %g bucket-bound rendering the
// formatBound doc promises) and a scrape-vs-ingest race test proving the
// snapshot-then-render scrape path never reads the hot-path counters
// unlocked while producers mutate them.

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsGoldenScrape(t *testing.T) {
	m := newMetrics()
	m.addQuery("a")
	m.addQuery("a")
	m.addQuery("a")
	m.addSteps("a", 120)
	m.addSteps("b", 5)
	m.observeStep(500 * time.Nanosecond) // le="1e-06"
	m.observeStep(2 * time.Millisecond)  // le="0.01"
	m.observeStep(5 * time.Second)       // +Inf
	m.setDraining(true)

	sessions := []sessionSample{
		{tenant: "a", scheme: "s", session: "r", epoch: 42},
		{tenant: "b", scheme: "s", session: "r2", epoch: 7},
	}
	inflight := []inflightSample{{tenant: "a", queries: 1, streams: 2}}

	var buf bytes.Buffer
	m.write(&buf, sessions, inflight)

	want := strings.Join([]string{
		"# HELP fvld_queries_total Query requests admitted, by tenant.",
		"# TYPE fvld_queries_total counter",
		`fvld_queries_total{tenant="a"} 3`,
		"# HELP fvld_steps_total Derivation steps applied via step streams, by tenant.",
		"# TYPE fvld_steps_total counter",
		`fvld_steps_total{tenant="a"} 120`,
		`fvld_steps_total{tenant="b"} 5`,
		"# HELP fvld_throttled_total Requests refused by admission control (429), by tenant.",
		"# TYPE fvld_throttled_total counter",
		"# HELP fvld_step_latency_seconds Per-step ingestion latency (the session's Apply call).",
		"# TYPE fvld_step_latency_seconds histogram",
		`fvld_step_latency_seconds_bucket{le="1e-06"} 1`,
		`fvld_step_latency_seconds_bucket{le="1e-05"} 1`,
		`fvld_step_latency_seconds_bucket{le="0.0001"} 1`,
		`fvld_step_latency_seconds_bucket{le="0.001"} 1`,
		`fvld_step_latency_seconds_bucket{le="0.01"} 2`,
		`fvld_step_latency_seconds_bucket{le="0.1"} 2`,
		`fvld_step_latency_seconds_bucket{le="1"} 2`,
		`fvld_step_latency_seconds_bucket{le="+Inf"} 3`,
		"fvld_step_latency_seconds_sum 5.0020005",
		"fvld_step_latency_seconds_count 3",
		"# HELP fvld_session_epoch Published step prefix (epoch) of each session.",
		"# TYPE fvld_session_epoch gauge",
		`fvld_session_epoch{tenant="a",scheme="s",session="r"} 42`,
		`fvld_session_epoch{tenant="b",scheme="s",session="r2"} 7`,
		"# HELP fvld_inflight_queries Query requests currently executing, by tenant.",
		"# TYPE fvld_inflight_queries gauge",
		`fvld_inflight_queries{tenant="a"} 1`,
		"# HELP fvld_inflight_streams Step streams currently open, by tenant.",
		"# TYPE fvld_inflight_streams gauge",
		`fvld_inflight_streams{tenant="a"} 2`,
		"# HELP fvld_draining Whether the server is refusing new writes.",
		"# TYPE fvld_draining gauge",
		"fvld_draining 1",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("scrape text diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMetricsScrapeIngestRace hammers the hot-path mutators while scrapers
// render concurrently; under -race this proves write's snapshot really
// decouples rendering from the counter maps. The final scrape then checks no
// increment was lost.
func TestMetricsScrapeIngestRace(t *testing.T) {
	m := newMetrics()
	const (
		producers = 4
		rounds    = 500
	)
	var scrapers, writers sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.write(io.Discard, nil, nil)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				m.addQuery("t")
				m.addSteps("t", 2)
				m.addThrottled("t")
				m.observeStep(time.Duration(i%7) * time.Microsecond)
				m.setDraining(i%2 == 0)
			}
		}(p)
	}
	writers.Wait()
	close(stop)
	scrapers.Wait()

	snap := m.snapshot()
	if got, want := snap.queries["t"], uint64(producers*rounds); got != want {
		t.Errorf("queries lost under concurrent scrapes: got %d want %d", got, want)
	}
	if got, want := snap.steps["t"], uint64(2*producers*rounds); got != want {
		t.Errorf("steps lost under concurrent scrapes: got %d want %d", got, want)
	}
	if got, want := snap.stepCount, uint64(producers*rounds); got != want {
		t.Errorf("histogram count lost under concurrent scrapes: got %d want %d", got, want)
	}
}
