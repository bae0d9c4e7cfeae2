package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/fvl"
)

// span is one recorded interval: a call into a layer, made from the
// benchmark's own code. Parent is the index of the enclosing span, or -1.
// Spans of one request (one round, run or setup) share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; they are written out once, at exit. A tracer
// that is off records nothing and costs one branch per call, so the untraced
// run executes exactly the same code path.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its handle; end closes it.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// call records fn as one span.
func (t *tracer) call(name string, parent int32, req int64, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// childTime returns, per span, the time its direct children cover. Spans
// are recorded by one goroutine, so siblings never overlap.
func (t *tracer) childTime() []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	return child
}

// layerTotals sums, per span name, the durations and the counts.
type layerTotals struct {
	dur map[string]time.Duration
	n   map[string]int
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{dur: map[string]time.Duration{}, n: map[string]int{}}
	for _, s := range t.spans {
		lt.dur[s.Name] += time.Duration(s.End - s.Start)
		lt.n[s.Name]++
	}
	return lt
}

// ledger returns the unaccounted share of the path spans: the self time of
// every root span named "path.*" (time inside the path that no layer span
// covers) over their total duration.
func (t *tracer) ledger() float64 {
	var total, self time.Duration
	child := t.childTime()
	for i, s := range t.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "path.") {
			d := time.Duration(s.End - s.Start)
			total += d
			self += d - child[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// perUnit divides a layer's summed duration, in units of scale, by units.
func (lt layerTotals) perUnit(name string, units float64, scale time.Duration) float64 {
	if units <= 0 {
		return 0
	}
	return float64(lt.dur[name]) / float64(scale) / units
}

// writeSpans writes the recorded spans as one JSON document.
func (t *tracer) writeSpans(path string) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return fvl.WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(t.spans)
	})
}
