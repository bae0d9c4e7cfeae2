// Package bench implements the experiment harness of Section 6 of the paper:
// one entry point per figure and table of the evaluation, each returning a
// printable table whose rows (or series) correspond to what the paper plots.
// Absolute numbers differ from the paper's (different language, hardware and
// constants), but the shapes — who wins, by roughly what factor, where
// crossovers fall — are the reproduction target; a table's Notes, printed
// as its closing "paper shape:" line, state the trend the paper reports.
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/drl"
	"repro/internal/run"
	"repro/internal/view"
	"repro/internal/workloads"
)

// Config controls the scale of the experiments.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// RunSizes are the run sizes (number of data items) swept by the
	// run-scaling experiments (Figures 17, 18 and 20).
	RunSizes []int
	// SamplesPerPoint is the number of sample runs averaged per data point
	// (the paper uses 100).
	SamplesPerPoint int
	// Queries is the number of sample queries used to measure query time
	// (the paper uses 10^6).
	Queries int
	// MultiViewRunSize is the run size used by the multi-view experiments
	// (Figures 21-23; the paper uses 8K data items).
	MultiViewRunSize int
	// MaxViews is the largest view count of Figures 21 and 22.
	MaxViews int
	// Workers caps the worker sweep of the concurrent-serving experiment
	// (the engine table); 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig reproduces the paper's experimental scale.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		RunSizes:         []int{1000, 2000, 4000, 8000, 16000, 32000},
		SamplesPerPoint:  20,
		Queries:          100000,
		MultiViewRunSize: 8000,
		MaxViews:         10,
	}
}

// QuickConfig is a reduced-scale configuration used by unit tests and the
// testing.B benchmarks, small enough to finish in seconds.
func QuickConfig() Config {
	return Config{
		Seed:             1,
		RunSizes:         []int{500, 1000, 2000},
		SamplesPerPoint:  3,
		Queries:          2000,
		MultiViewRunSize: 1500,
		MaxViews:         5,
	}
}

// Table is one experiment's printable result.
type Table struct {
	Name    string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the expected shape from the paper for side-by-side
	// comparison in reports.
	Notes string
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "paper shape: %s\n", t.Notes)
	}
	return b.String()
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	Name        string
	Description string
	Run         func(Config) (*Table, error)
}

// All returns every experiment of Section 6, in the paper's order.
func All() []Experiment {
	return []Experiment{
		{"fig17", "Data label length (bits), FVL vs DRL, vs run size", Fig17},
		{"fig18", "Data label construction time, FVL vs DRL, vs run size", Fig18},
		{"fig19", "View label length for three view sizes and three FVL variants", Fig19},
		{"fig20", "Query time vs run size for three FVL variants", Fig20},
		{"fig21", "Total data label length per item vs number of views, FVL vs DRL", Fig21},
		{"fig22", "Total data label construction time vs number of views, FVL vs DRL", Fig22},
		{"fig23", "Query time over coarse-grained views: FVL, Matrix-Free FVL, DRL", Fig23},
		{"fig24", "Data label length vs nesting depth (synthetic)", Fig24},
		{"fig25", "Query time vs module degree (synthetic)", Fig25},
		{"table1", "Impact of synthetic parameters on labeling performance", Table1},
		{"engine", "Batch query throughput and parallel multi-view labeling vs worker count", EngineThroughput},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

// labeledBioAIDRun derives one BioAID run of the given size and labels it
// with FVL, returning the run, the labeler and the wall-clock labeling time.
func labeledBioAIDRun(spec *core.Scheme, size int, seed int64) (*run.Run, *core.RunLabeler, time.Duration, error) {
	r, err := workloads.RandomRun(spec.Spec, workloads.RunOptions{TargetSize: size, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	labeler, err := spec.LabelRun(r)
	if err != nil {
		return nil, nil, 0, err
	}
	return r, labeler, time.Since(start), nil
}

// labelStats summarizes data label lengths in bits.
type labelStats struct {
	avg float64
	max int
}

func fvlLabelStats(scheme *core.Scheme, labeler *core.RunLabeler, r *run.Run) labelStats {
	codec := scheme.Codec()
	total, max, n := 0, 0, 0
	for _, item := range r.Items {
		l, ok := labeler.Label(item.ID)
		if !ok {
			continue
		}
		bits := codec.SizeBits(l)
		total += bits
		if bits > max {
			max = bits
		}
		n++
	}
	if n == 0 {
		return labelStats{}
	}
	return labelStats{avg: float64(total) / float64(n), max: max}
}

func drlLabelStats(labeler *drl.Labeler, r *run.Run) labelStats {
	total, max, n := 0, 0, 0
	for _, item := range r.Items {
		l, ok := labeler.Label(item.ID)
		if !ok {
			continue
		}
		bits := labeler.SizeBits(l)
		total += bits
		if bits > max {
			max = bits
		}
		n++
	}
	if n == 0 {
		return labelStats{}
	}
	return labelStats{avg: float64(total) / float64(n), max: max}
}

// bioAIDViews builds the small / medium / large views of Section 6.3 over the
// BioAID-like workflow: 2, 8 and 16 expandable composite modules with random
// dependency assignments.
func bioAIDViews(spec *core.Scheme, mode workloads.DependencyMode, seed int64) (map[string]*view.View, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := map[string]int{"small": 2, "medium": 8, "large": 16}
	out := map[string]*view.View{}
	for _, name := range []string{"small", "medium", "large"} {
		v, err := workloads.RandomView(spec.Spec, workloads.ViewOptions{
			Name:       name,
			Composites: sizes[name],
			Mode:       mode,
			Rand:       rng,
		})
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}

// visibleLabelPairs samples query inputs: pairs of labels of items visible in
// the view.
func visibleLabelPairs(labeler *core.RunLabeler, r *run.Run, v *view.View, count int, seed int64) ([][2]*core.DataLabel, error) {
	proj, err := run.Project(r, v)
	if err != nil {
		return nil, err
	}
	visible := proj.VisibleItems()
	if len(visible) == 0 {
		return nil, fmt.Errorf("bench: view %q hides every data item", v.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]*core.DataLabel, count)
	for i := range pairs {
		a, _ := labeler.Label(visible[rng.Intn(len(visible))])
		b, _ := labeler.Label(visible[rng.Intn(len(visible))])
		pairs[i] = [2]*core.DataLabel{a, b}
	}
	return pairs, nil
}

// measureQueries runs the decoding predicate over the sample pairs and
// returns the average time per query.
func measureQueries(vl *core.ViewLabel, pairs [][2]*core.DataLabel) (time.Duration, error) {
	start := time.Now()
	for _, p := range pairs {
		if _, err := vl.DependsOn(p[0], p[1]); err != nil {
			return 0, err
		}
	}
	if len(pairs) == 0 {
		return 0, nil
	}
	return time.Since(start) / time.Duration(len(pairs)), nil
}

// newRand builds a deterministic randomness source for one experiment step.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func fmtBits(b float64) string     { return fmt.Sprintf("%.1f", b) }
func fmtKB(bits int) string        { return fmt.Sprintf("%.3f", float64(bits)/8.0/1024.0) }
func fmtMs(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0) }
func fmtUs(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1000.0) }
func fmtRatio(r float64) string    { return fmt.Sprintf("%.2f", r) }
func fmtCount(n int) string        { return fmt.Sprintf("%d", n) }
func fmtSize(n int) string         { return fmt.Sprintf("%d", n) }
