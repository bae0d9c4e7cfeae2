// Package bench is the public face of the experiment harness that
// reproduces the paper's evaluation (Section 6): one runnable experiment per
// figure and table, and the configuration that scales them. It is a thin
// façade over the internal harness so programs outside the module —
// including the bundled fvlbench command — never import repro/internal.
package bench

import "repro/internal/bench"

// Config controls the scale of the experiments (run sizes, samples per
// point, query counts, the engine experiment's worker sweep).
type Config = bench.Config

// Table is one experiment's printable result.
type Table = bench.Table

// Experiment is a named, runnable experiment.
type Experiment = bench.Experiment

// DefaultConfig reproduces the paper's experimental scale.
func DefaultConfig() Config { return bench.DefaultConfig() }

// QuickConfig is a reduced scale that finishes in seconds, for smoke runs.
func QuickConfig() Config { return bench.QuickConfig() }

// All returns every experiment in the paper's order.
func All() []Experiment { return bench.All() }

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) { return bench.Lookup(name) }
