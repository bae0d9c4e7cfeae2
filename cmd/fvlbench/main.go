// Command fvlbench regenerates the tables and figures of the paper's
// evaluation (Section 6). Each experiment prints the rows or series the
// corresponding figure plots; absolute numbers depend on the machine, but the
// shapes are the reproduction target (each table's "paper shape:" line states
// the trend the paper reports).
//
// Usage:
//
//	fvlbench                      # run every experiment at paper scale
//	fvlbench -quick               # reduced scale (seconds instead of minutes)
//	fvlbench -experiments fig17,fig21
//	fvlbench -experiments engine -parallel 8
//	fvlbench -experiments snapshot -load labels.fvl
//	fvlbench -o results.txt       # also write the report to a file
//
// The engine experiment measures the concurrent serving layer (batch query
// throughput and parallel multi-view labeling); -parallel caps its worker
// sweep, defaulting to GOMAXPROCS. The live experiment replays a recorded
// derivation into a live session while readers query the growing prefix,
// measuring per-step label latency and mid-run vs post-run query throughput
// (-parallel caps its sweep too). The snapshot experiment loads a label
// snapshot written by wflabel -snapshot and differentially verifies it
// against freshly built labels; without -load it is skipped. The recovery
// experiment ingests one run into durable session directories at several
// checkpoint intervals and measures resume latency against the replayed
// journal tail; -sessiondir additionally measures an existing directory
// (written by wflabel -session).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/fvl/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (for smoke tests)")
	names := flag.String("experiments", "all", "comma-separated experiment names (fig17..fig25, table1) or 'all'")
	seed := flag.Int64("seed", 1, "random seed shared by all experiments")
	samples := flag.Int("samples", 0, "override the number of sample runs per data point")
	queries := flag.Int("queries", 0, "override the number of sample queries per measurement")
	parallel := flag.Int("parallel", 0, "largest worker count of the engine experiment's sweep (0 = GOMAXPROCS)")
	load := flag.String("load", "", "label snapshot (from wflabel -snapshot) for the snapshot experiment")
	sessionDir := flag.String("sessiondir", "", "durable session directory (from wflabel -session) whose resume latency the recovery experiment also measures")
	output := flag.String("o", "", "also write the report to this file")
	list := flag.Bool("list", false, "list the available experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.Name, e.Description)
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	if *samples > 0 {
		cfg.SamplesPerPoint = *samples
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *parallel > 0 {
		cfg.Workers = *parallel
	}
	cfg.SnapshotPath = *load
	cfg.SessionDir = *sessionDir

	var experiments []bench.Experiment
	if *names == "all" {
		experiments = bench.All()
	} else {
		for _, name := range strings.Split(*names, ",") {
			name = strings.TrimSpace(name)
			e, ok := bench.Lookup(name)
			if !ok {
				log.Fatalf("unknown experiment %q (use -list to see the available ones)", name)
			}
			experiments = append(experiments, e)
		}
	}

	var out io.Writer = os.Stdout
	var report *os.File
	if *output != "" {
		// The -o file tees the report as the experiments stream it to
		// stdout over minutes; it is a console transcript, not a durable
		// artifact, so plain create-and-append is the right tool.
		//lint:ignore syncrename the -o report is a console transcript teed from stdout, not an artifact a crash must leave whole
		f, err := os.Create(*output)
		if err != nil {
			log.Fatalf("creating %s: %v", *output, err)
		}
		report = f
		out = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(out, "FVL experiment harness — %d experiment(s), seed %d, %s scale\n\n",
		len(experiments), cfg.Seed, scaleName(*quick))
	for _, e := range experiments {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(out, "%s\n(completed in %v)\n\n", table, time.Since(start).Round(time.Millisecond))
	}
	if report != nil {
		if err := report.Close(); err != nil {
			log.Fatalf("writing %s: %v", *output, err)
		}
	}
}

func scaleName(quick bool) string {
	if quick {
		return "reduced"
	}
	return "paper"
}
