package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest of p99, p95 and p90 that has at least ten samples
// beyond it, so a reported tail is never one or two outliers.
func tail(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.95} {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q)
		}
	}
	return quantile(xs, 0.9)
}

// clock reads wall time, the process's CPU time and the bytes it has
// allocated, together. CPU time is the user plus system time of every
// thread of the process — client, server goroutines and the garbage
// collector — so it is the work an operation cost, and unlike wall time it
// does not grow when the virtual machine's host steals the CPU.
type clock struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// sample is what happened between two clock readings.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64 // heap bytes allocated
}

func now() clock { return clock{time.Now(), cpuTime(), allocBytes()} }

// since returns what happened since c.
func (c clock) since() sample {
	return now().sub(c)
}

// lap returns what happened since c and restarts c, for timing consecutive
// operations.
func (c *clock) lap() sample {
	n := now()
	s := n.sub(*c)
	*c = n
	return s
}

func (c clock) sub(from clock) sample {
	return sample{c.wall.Sub(from.wall), c.cpu - from.cpu, c.alloc - from.alloc}
}

func (s sample) plus(o sample) sample {
	return sample{s.wall + o.wall, s.cpu + o.cpu, s.alloc + o.alloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for an invalid who argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// latencies accumulates per-operation wall times and per-window work. A
// window is a whole unit of the workload (a run, a session, a pass); its
// throughput is units per busy wall second, its cost CPU milliseconds and
// allocated kilobytes per unit. Reporting the median over windows is far
// steadier than one whole-phase ratio.
type latencies struct {
	ms     []float64 // wall milliseconds per operation
	rates  []float64 // per window: units per busy wall second
	costs  []float64 // per window: CPU milliseconds per unit
	allocs []float64 // per window: allocated KB per unit
	units  float64   // work done over all windows

	winUnits float64
	win      sample
}

// add records one operation that did units of work (steps, queries,
// rounds). Operations too short to read the CPU clock around pass only the
// wall time and report the window's CPU and allocations through busy.
func (l *latencies) add(s sample, units float64) {
	l.ms = append(l.ms, float64(s.wall)/float64(time.Millisecond))
	l.units += units
	l.winUnits += units
	l.win = l.win.plus(s)
}

// busy adds what belongs to the window but to no single operation (a
// checkpoint, an open or a close).
func (l *latencies) busy(s sample) { l.win = l.win.plus(s) }

// closeWindow ends the current window.
func (l *latencies) closeWindow() {
	if l.win.wall > 0 && l.winUnits > 0 {
		l.rates = append(l.rates, l.winUnits/l.win.wall.Seconds())
		l.costs = append(l.costs, float64(l.win.cpu)/float64(time.Millisecond)/l.winUnits)
		l.allocs = append(l.allocs, float64(l.win.alloc)/1024/l.winUnits)
	}
	l.winUnits, l.win = 0, sample{}
}

// allocKB is the median allocated kilobytes per unit over windows.
func (l *latencies) allocKB() float64 { return median(l.allocs) }

// cost is the median CPU milliseconds per unit over windows.
func (l *latencies) cost() float64 { return median(l.costs) }

func (l *latencies) rate() float64 { return median(l.rates) }

// phaseDeadline returns when a measured phase ends: an untraced run measures
// for the whole time, a traced run splits it between its untraced and its
// traced phase.
func phaseDeadline(cfg config) time.Time {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	return time.Now().Add(d)
}

// setPathMetrics reports the wall-clock and per-operation-kind figures of a
// phase; a kind the workload does not run is passed as nil and reads 0.
func setPathMetrics(rep *report, ops, ingest, point, set *latencies) {
	rep.set("path.ops_per_s", "1/s", ops.rate())
	rep.set("path.op_p50_ms", "ms", ops.p50())
	rep.set("path.op_tail_ms", "ms", tail(ops.ms))
	for _, k := range []struct {
		l                 *latencies
		prefix, rate, cpu string
		unit              string
		cpuScale          float64
	}{
		{ingest, "path.ingest_ack", "path.ingest_steps_per_s", "path.ingest_cpu_us_per_step", "us", 1e3},
		{point, "path.point_batch", "path.point_queries_per_s", "path.point_cpu_us_per_query", "us", 1e3},
		{set, "path.set_batch", "path.set_queries_per_s", "path.set_cpu_ms_per_query", "ms", 1},
	} {
		if k.l == nil || len(k.l.ms) == 0 {
			continue
		}
		rep.set(k.rate, "1/s", k.l.rate())
		rep.set(k.cpu, k.unit, k.l.cost()*k.cpuScale)
		rep.set(k.prefix+"_p50_ms", "ms", k.l.p50())
		rep.set(k.prefix+"_tail_ms", "ms", tail(k.l.ms))
	}
}

func (l *latencies) p50() float64 { return median(l.ms) }

// liveHeapMB returns the live heap in MiB. It forces two collections: after
// the first, sync.Pool contents survive in the pools' victim caches and
// would count as live; the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeCounters reads the cumulative GC cycle count and allocated bytes.
func runtimeCounters() (gcCycles uint64, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hashItems fingerprints an ascending item set, so a verified answer can be
// remembered and every later answer compared against it cheaply.
func hashItems(items []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, y := range items {
		binary.LittleEndian.PutUint64(b[:], uint64(y))
		h.Write(b[:])
	}
	return h.Sum64()
}
