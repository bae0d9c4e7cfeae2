package fvl

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/labelstore"
)

// Query is one reachability question for a batch: does the item labeled To
// depend on the item labeled From?
type Query struct {
	From, To Label
}

// Result answers one query of a batch. Err is non-nil when that query's
// labels are invalid for the view (for example an item the view hides, see
// ErrHiddenItem); the other queries of the batch are unaffected.
type Result = engine.Result

// Service is the serving half of the system: a set of labeled views fronted
// by a concurrent batch query engine. It unifies what used to take three
// internal packages — view labeling, the worker-pool engine, and snapshot
// persistence — behind two constructors:
//
//   - Open labels the given views of a specification and serves them;
//   - OpenSnapshot loads a persisted snapshot, which stores the view
//     definitions, relabels each view under an allocation budget funded by
//     the snapshot's size, and serves them.
//
// A Service is immutable and safe for concurrent use. Every query path takes
// a context and observes cancellation at claim-block granularity.
type Service struct {
	spec   *Spec
	scheme *core.Scheme
	server *engine.Server
	labels map[string]*ViewLabel
}

// Open builds the labeling scheme for the specification (compact or basic,
// as NewLabeler chooses), labels every view (concurrently, over the
// WithWorkers pool; the variant comes from WithVariant), and returns a
// Service answering reachability queries over them. With WithSnapshot the
// service's Snapshot is also written to the writer before Open returns. The
// context cancels the view labeling between views (ErrCanceled).
func Open(ctx context.Context, spec *Spec, views []*View, opts ...Option) (*Service, error) {
	o := newOptions(opts)
	labeler, err := NewLabeler(spec, opts...)
	if err != nil {
		return nil, err
	}
	labels, err := labeler.LabelViews(ctx, views...)
	if err != nil {
		return nil, err
	}
	// Dedupe before serving: passing the same view twice is harmless (one
	// label serves it), but two distinct views sharing a name would be
	// ambiguous for both the server and the snapshot.
	labels, err = dedupeByView(labels)
	if err != nil {
		return nil, err
	}
	coreLabels := make([]*core.ViewLabel, len(labels))
	for i, vl := range labels {
		coreLabels[i] = vl.vl
	}
	server, err := engine.NewServer(labeler.scheme, coreLabels, o.workers)
	if err != nil {
		return nil, err
	}
	s := &Service{spec: spec, scheme: labeler.scheme, server: server, labels: map[string]*ViewLabel{}}
	for _, vl := range labels {
		s.labels[vl.View().Name()] = vl
	}
	// The snapshot is written only once the service is fully constructed, so
	// a failed Open never leaves a partial artifact on the writer.
	if o.snapshot != nil {
		if err := s.Snapshot(o.snapshot); err != nil {
			return nil, fmt.Errorf("fvl: writing snapshot: %w", err)
		}
	}
	return s, nil
}

// OpenSnapshot loads a label snapshot (written by Service.Snapshot, or by
// Open through WithSnapshot) and serves it. A snapshot stores the
// specification and each view's definition and variant, and loading
// relabels every view under an allocation budget funded by the snapshot's
// size. The input is untrusted: any problem — structural damage, an unsafe
// view, a view whose label would pass the budget — fails with
// ErrCorruptSnapshot. Only WithWorkers among the options affects a loaded
// service.
func OpenSnapshot(r io.Reader, opts ...Option) (*Service, error) {
	snap, err := labelstore.Load(r)
	if err != nil {
		return nil, err
	}
	return openLoaded(snap, newOptions(opts))
}

// OpenSnapshotFile loads and serves a label snapshot from a file.
func OpenSnapshotFile(path string, opts ...Option) (*Service, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := OpenSnapshot(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("fvl: snapshot %s: %w", path, err)
	}
	return s, nil
}

func openLoaded(snap *labelstore.Snapshot, o options) (*Service, error) {
	server, err := engine.NewServerFromSnapshot(snap, o.workers)
	if err != nil {
		return nil, err
	}
	s := &Service{
		spec:   &Spec{spec: snap.Scheme.Spec},
		scheme: snap.Scheme,
		server: server,
		labels: map[string]*ViewLabel{},
	}
	for _, vl := range snap.Labels {
		view := &View{v: vl.View()}
		s.labels[view.Name()] = &ViewLabel{vl: vl, view: view}
	}
	return s, nil
}

// Spec returns the specification the service's labels were computed over.
// Runs derived from it (Spec.NewRun) can be labeled by NewLabeler and
// queried against this service.
func (s *Service) Spec() *Spec { return s.spec }

// NewLabeler returns a labeler over the service's own scheme, so data labels
// computed by it are exactly the ones the service's view labels decode —
// including for snapshot-loaded services.
func (s *Service) NewLabeler(opts ...Option) *Labeler {
	return &Labeler{spec: s.spec, scheme: s.scheme, opt: newOptions(opts)}
}

// IsBasic reports whether the service's labels were computed with the
// Theorem-1 basic scheme, which NewLabeler and Open choose exactly when the
// grammar is not strictly linear-recursive.
func (s *Service) IsBasic() bool { return s.scheme.IsBasic() }

// Views returns the served view names in sorted order.
func (s *Service) Views() []string { return s.server.Views() }

// ViewLabel returns the label serving the named view.
func (s *Service) ViewLabel(viewName string) (*ViewLabel, bool) {
	vl, ok := s.labels[viewName]
	return vl, ok
}

// Workers returns the effective worker-pool size of the query engine.
func (s *Service) Workers() int { return s.server.Engine().Workers() }

// DependsOn answers one reachability query against the named view: does the
// item labeled d2 depend on the item labeled d1? Unknown view names fail
// with ErrUnknownView; a pre-canceled context fails with ErrCanceled.
func (s *Service) DependsOn(ctx context.Context, viewName string, d1, d2 Label) (bool, error) {
	if err := background(ctx).Err(); err != nil {
		return false, fmt.Errorf("fvl: query not started: %w (%v)", faults.ErrCanceled, err)
	}
	vl, ok := s.labels[viewName]
	if !ok {
		return false, fmt.Errorf("fvl: no label for view %q (serving %v): %w", viewName, s.Views(), faults.ErrUnknownView)
	}
	return vl.DependsOn(d1, d2)
}

// DependsOnBatch answers a batch of queries against the named view, fanned
// out over the worker pool; results[i] corresponds to queries[i]. It fails
// only when the view is unknown (ErrUnknownView) or the context is canceled
// (ErrCanceled) — per-query problems surface in the corresponding Result.
//
// Cancellation is observed at claim-block granularity: workers stop claiming
// new blocks of the batch, in-flight blocks finish, and the partial results
// are returned together with the error. Results for queries that were never
// claimed are the zero Result.
func (s *Service) DependsOnBatch(ctx context.Context, viewName string, queries []Query) ([]Result, error) {
	eq := make([]engine.Query, len(queries))
	for i, q := range queries {
		eq[i] = engine.Query{D1: q.From.d, D2: q.To.d}
	}
	return s.server.DependsOnBatchContext(background(ctx), viewName, eq)
}

// Snapshot persists the service's scheme and every served view label as a
// validated binary snapshot, loadable with OpenSnapshot. It is the one
// snapshot writer of the package. View labels are static — they never
// depend on a run — so a snapshot taken while a live session runs serves
// the same answers as one taken at completion; pair it with
// Session.WriteJournal to restore the session on a freshly opened service.
func (s *Service) Snapshot(w io.Writer) error {
	labels := make([]*core.ViewLabel, 0, len(s.labels))
	for _, name := range s.Views() {
		labels = append(labels, s.labels[name].vl)
	}
	return labelstore.Save(w, s.scheme, labels)
}

// SnapshotFile persists the service's labels to a file, atomically: the
// snapshot is written to a temp file in the target directory, fsynced, and
// renamed into place, so a crash mid-write never leaves a truncated snapshot
// at path.
func (s *Service) SnapshotFile(path string) error {
	return labelstore.WriteFileAtomic(path, func(f *os.File) error {
		return s.Snapshot(f)
	})
}
