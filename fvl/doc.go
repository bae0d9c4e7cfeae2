// Package fvl is the public API of the FVL system — a Go reproduction of
// "Labeling Workflow Views with Fine-Grained Dependencies" (Bao, Davidson,
// Milo; PVLDB 2012) grown into a serving library. It is the single supported
// surface over the internal packages: workflow specifications, runs, views,
// the view-adaptive labeling scheme, snapshot persistence, and the
// concurrent query engine are all reached from here.
//
// # Model
//
// A Spec is a context-free workflow grammar with fine-grained input-output
// dependencies for its atomic modules. A Run derives from a Spec by
// expanding composite module instances; every expansion creates data items.
// A View hides part of the workflow — it restricts which composite modules
// may be expanded and substitutes perceived dependencies for what it hides.
//
// The system's value is the labeling: attach a Labeler to a run and every
// data item receives a compact label the moment it is produced. Label a view
// once (a few matrices) and any two data labels answer "does this item
// depend on that one, as this view sees the run?" — no run, no graph, no
// database; just the three labels.
//
// # Construction
//
// Specs and views are assembled with fluent builders that accumulate errors
// instead of panicking:
//
//	spec, err := fvl.NewSpec().
//	    Module("S", 1, 1).Module("step", 1, 1).
//	    Start("S").
//	    Production("S", fvl.NewFlow().Node("step")).
//	    Deps("step", [2]int{0, 0}).
//	    Build()
//
// The bundled workloads (PaperExample, BioAID, Synthetic, ...) provide
// ready-made specifications, and RandomRun / RandomView generate
// deterministic runs and views from a seed.
//
// # Labeling and querying
//
// NewLabeler builds the labeling scheme once per specification: the compact
// scheme when the grammar is strictly linear-recursive, the Theorem-1 basic
// scheme otherwise (IsBasic reports which). Functional options select the
// view-label variant (WithVariant), the worker pool (WithWorkers) and
// snapshot persistence on Open (WithSnapshot). Open labels a set of views
// and returns a Service whose DependsOn / DependsOnBatch answer queries
// concurrently; Service.Snapshot persists its labels, and OpenSnapshot
// loads such an artifact, relabels the views it defines and serves them.
//
// Every potentially long operation takes a context.Context and honors
// cancellation at a documented granularity: batch queries stop between
// claim blocks, multi-view labeling stops between views, run labeling stops
// between derivation steps.
//
// # Set queries
//
// Beyond point queries, QueryExpr describes whole answer sets — DepsOf,
// RevDepsOf, BetweenViews, ExplainOutputs, combined with Union, Intersect
// and Project — and Service.Query / Session.Query answer them with planned
// bitset-row scans over the view-label matrices, orders of magnitude faster
// than looping point queries over every candidate. ParseQueryExpr decodes
// the canonical text form ("union(deps(7),revdeps(10))", the same language
// the wflabel and wfcheck -query flags accept), and Service.ExplainQuery
// shows the access paths the planner picks without executing anything.
//
// # Errors
//
// Failures wrap the package's sentinel errors (ErrUnknownView,
// ErrForeignLabel, ErrCorruptSnapshot, ErrCanceled, ErrUnsafeView,
// ErrNotLinearRecursive, ErrHiddenItem), so callers classify them with
// errors.Is rather than by message.
//
// The experiment harness that reproduces the paper's evaluation lives in
// the subpackage repro/fvl/bench.
package fvl
