// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload at a given seed for a given number of seconds, checks every
// answer it measures against a from-scratch oracle, and prints one JSON result
// object as the last line of its standard output:
//
//	perfbench --workload ingest-durable --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the same inputs run twice — once untraced and
// once with spans recorded around every call into a layer — and the result
// holds the per-layer metrics, the ledger closure and the tracing overhead;
// the spans are written to .bench_build/out at exit. Any oracle mismatch or
// failed operation exits with status 1 and prints no result.
//
// The metric names and units are listed in BENCHMARK.json at the repository
// root, which the program reads to check that it reports exactly that set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Flush policy shared by every durable session of every workload: fsync the
// journal every syncEvery steps and checkpoint every checkpointEvery steps.
// One fsync per step would measure the disk rather than the program.
const (
	syncEvery       = 64
	checkpointEvery = 1024
)

// outDir receives the span files of traced runs; workDir holds the session
// directories and snapshots a run creates. Both sit under the build
// directory the wrapper script uses, so a checkout stays clean.
const (
	outDir  = ".bench_build/out"
	workDir = ".bench_build/work"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // per-process scratch directory under workDir
}

// workload is one benchmark workload: run generates its inputs from the
// seed, untimed, then measures the workload and fills the report.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config, rep *report) error
}

var workloads = []workload{
	{"ingest-durable", runIngestDurable},
	{"mixed-fvld", runMixedFVLD},
	{"query-space", runQuerySpace},
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: ingest-durable, mixed-fvld or query-space")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	catalogue, err := readCatalogue("BENCHMARK.json")
	if err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg.work = filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	hdr := newHeader(cfg)
	if err := printJSONLine(os.Stdout, "header", hdr); err != nil {
		return err
	}
	rep := newReport(cfg)
	if err := w.run(context.Background(), cfg, rep); err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	want := catalogue.EndToEnd
	if cfg.trace {
		want = catalogue.PerLayer
		if err := rep.tr.writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))); err != nil {
			return err
		}
	}
	metrics, err := rep.metricsFor(want)
	if err != nil {
		return err
	}
	rep.printTable(os.Stdout, metrics)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, rep.attempted, rep.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}

// catalogue is the part of BENCHMARK.json the program checks itself against.
type catalogue struct {
	EndToEnd []catalogueEntry `json:"end_to_end"`
	PerLayer []catalogueEntry `json:"per_layer"`
}

type catalogueEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readCatalogue(path string) (*catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric catalogue: %w", err)
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &c, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a workload measured. Values are set by name; the
// units come from the catalogue, and a unit the program did not declare for
// a name is a bug caught by metricsFor.
type report struct {
	cfg       config
	tr        *tracer
	attempted int64
	failed    int64
	values    map[string]metric
}

func newReport(cfg config) *report {
	return &report{cfg: cfg, tr: newTracer(cfg.trace), values: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.values[name] = metric{v, unit} }

// op records one attempted operation and its outcome.
func (r *report) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// metricsFor selects the catalogue's metrics from the report. A per-layer
// metric of a layer the workload does not run reads 0; an end-to-end metric
// must always be measured.
func (r *report) metricsFor(want []catalogueEntry) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, e := range want {
		m, ok := r.values[e.Name]
		switch {
		case !ok && r.cfg.trace:
			m = metric{0, e.Unit}
		case !ok:
			return nil, fmt.Errorf("workload %s did not measure %s", r.cfg.workload, e.Name)
		case m.Unit != e.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, catalogue says %s", e.Name, m.Unit, e.Unit)
		}
		out[e.Name] = m
	}
	return out, nil
}

// printTable writes the human-readable report: every metric the workload
// measured (including the per-operation-kind figures that are not part of
// the JSON result), one per line, before the JSON line.
func (r *report) printTable(w io.Writer, selected map[string]metric) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v attempted=%d failed=%d\n", r.cfg.workload, r.cfg.seed, r.cfg.trace, r.attempted, r.failed)
	for _, n := range names {
		mark := "-"
		if _, ok := selected[n]; ok {
			mark = "*"
		}
		fmt.Fprintf(w, "# %s %-40s %14.6g %s\n", mark, n, r.values[n].Value, r.values[n].Unit)
	}
}

func printJSONLine(w io.Writer, tag string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "# %s %s\n", tag, b)
	return err
}

// elapsed returns the seconds elapsed since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
