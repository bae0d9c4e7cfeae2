package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// metrics is the hand-rolled Prometheus registry of the server: counters
// and one histogram under a mutex, rendered in text exposition format at
// scrape time. Session gauges (the epoch) are not stored here —
// the scrape walks the live registry instead, so a gauge can never go stale
// relative to the sessions it describes.
type metrics struct {
	mu        sync.Mutex
	queries   map[string]uint64 // per tenant: query requests admitted
	steps     map[string]uint64 // per tenant: derivation steps applied
	throttled map[string]uint64 // per tenant: requests refused with 429
	draining  float64

	// stepLatency observes the wall time of one streamed step's
	// Session.Apply call — the ingestion latency a producer feels per step.
	stepBuckets [len(latencyBounds) + 1]uint64
	stepSum     float64
	stepCount   uint64
}

// latencyBounds are the histogram bucket upper bounds in seconds. The +Inf
// bucket is implicit (the last slot of stepBuckets).
var latencyBounds = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

func newMetrics() *metrics {
	return &metrics{
		queries:   make(map[string]uint64),
		steps:     make(map[string]uint64),
		throttled: make(map[string]uint64),
	}
}

func (m *metrics) addQuery(tenant string) {
	m.mu.Lock()
	m.queries[tenant]++
	m.mu.Unlock()
}

func (m *metrics) addSteps(tenant string, n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.steps[tenant] += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) addThrottled(tenant string) {
	m.mu.Lock()
	m.throttled[tenant]++
	m.mu.Unlock()
}

func (m *metrics) observeStep(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBounds[:], secs)
	m.mu.Lock()
	m.stepBuckets[i]++
	m.stepSum += secs
	m.stepCount++
	m.mu.Unlock()
}

func (m *metrics) setDraining(on bool) {
	m.mu.Lock()
	if on {
		m.draining = 1
	} else {
		m.draining = 0
	}
	m.mu.Unlock()
}

// sessionSample is one session's gauge row, collected at scrape time.
type sessionSample struct {
	tenant, scheme, session string
	epoch                   uint64
}

// inflightSample is one tenant's admission occupancy at scrape time.
type inflightSample struct {
	tenant           string
	queries, streams int
}

// metricsSnapshot is a point-in-time copy of the mutex-guarded counters, so
// rendering can happen after the lock is released: a slow scraper must never
// block observeStep/addSteps/addQuery on the hot ingestion path.
type metricsSnapshot struct {
	queries     map[string]uint64
	steps       map[string]uint64
	throttled   map[string]uint64
	draining    float64
	stepBuckets [len(latencyBounds) + 1]uint64
	stepSum     float64
	stepCount   uint64
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// snapshot copies every counter under the lock; arrays copy by value.
func (m *metrics) snapshot() metricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return metricsSnapshot{
		queries:     copyCounts(m.queries),
		steps:       copyCounts(m.steps),
		throttled:   copyCounts(m.throttled),
		draining:    m.draining,
		stepBuckets: m.stepBuckets,
		stepSum:     m.stepSum,
		stepCount:   m.stepCount,
	}
}

// write renders the registry in Prometheus text exposition format. The
// counters are snapshotted under the lock and rendered outside it, so a slow
// ResponseWriter cannot stall the ingestion hot path.
func (m *metrics) write(w io.Writer, sessions []sessionSample, inflight []inflightSample) {
	snap := m.snapshot()

	counter := func(name, help string, vals map[string]uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, tenant := range sortedKeys(vals) {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, tenant, vals[tenant])
		}
	}
	counter("fvld_queries_total", "Query requests admitted, by tenant.", snap.queries)
	counter("fvld_steps_total", "Derivation steps applied via step streams, by tenant.", snap.steps)
	counter("fvld_throttled_total", "Requests refused by admission control (429), by tenant.", snap.throttled)

	fmt.Fprintf(w, "# HELP fvld_step_latency_seconds Per-step ingestion latency (the session's Apply call).\n")
	fmt.Fprintf(w, "# TYPE fvld_step_latency_seconds histogram\n")
	var cum uint64
	for i, bound := range latencyBounds {
		cum += snap.stepBuckets[i]
		fmt.Fprintf(w, "fvld_step_latency_seconds_bucket{le=%q} %d\n", formatBound(bound), cum)
	}
	fmt.Fprintf(w, "fvld_step_latency_seconds_bucket{le=\"+Inf\"} %d\n", snap.stepCount)
	fmt.Fprintf(w, "fvld_step_latency_seconds_sum %g\n", snap.stepSum)
	fmt.Fprintf(w, "fvld_step_latency_seconds_count %d\n", snap.stepCount)

	fmt.Fprintf(w, "# HELP fvld_session_epoch Published step prefix (epoch) of each session.\n")
	fmt.Fprintf(w, "# TYPE fvld_session_epoch gauge\n")
	for _, s := range sessions {
		fmt.Fprintf(w, "fvld_session_epoch{tenant=%q,scheme=%q,session=%q} %d\n",
			s.tenant, s.scheme, s.session, s.epoch)
	}

	fmt.Fprintf(w, "# HELP fvld_inflight_queries Query requests currently executing, by tenant.\n")
	fmt.Fprintf(w, "# TYPE fvld_inflight_queries gauge\n")
	for _, s := range inflight {
		fmt.Fprintf(w, "fvld_inflight_queries{tenant=%q} %d\n", s.tenant, s.queries)
	}
	fmt.Fprintf(w, "# HELP fvld_inflight_streams Step streams currently open, by tenant.\n")
	fmt.Fprintf(w, "# TYPE fvld_inflight_streams gauge\n")
	for _, s := range inflight {
		fmt.Fprintf(w, "fvld_inflight_streams{tenant=%q} %d\n", s.tenant, s.streams)
	}

	fmt.Fprintf(w, "# HELP fvld_draining Whether the server is refusing new writes.\n")
	fmt.Fprintf(w, "# TYPE fvld_draining gauge\n")
	fmt.Fprintf(w, "fvld_draining %g\n", snap.draining)
}

// formatBound renders a bucket bound as Go's shortest %g representation;
// small magnitudes come out in exponent form (1e-06, 1e-05, ...), which the
// Prometheus text format accepts as a float label value. The golden scrape
// test pins this rendering.
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectSessions walks the registry for the per-session gauges.
func (s *Server) collectSessions() []sessionSample {
	var out []sessionSample
	for _, sess := range s.allSessions() {
		out = append(out, sessionSample{
			tenant:  sess.tenant,
			scheme:  sess.scheme.name,
			session: sess.name,
			epoch:   sess.sess.Epoch(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		if a.scheme != b.scheme {
			return a.scheme < b.scheme
		}
		return a.session < b.session
	})
	return out
}

// collectInflight reads each tenant's admission occupancy.
func (s *Server) collectInflight() []inflightSample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]inflightSample, 0, len(s.tenants))
	for name, t := range s.tenants {
		out = append(out, inflightSample{
			tenant:  name,
			queries: len(t.queryTokens),
			streams: len(t.streamTokens),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tenant < out[j].tenant })
	return out
}
