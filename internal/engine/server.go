package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/labelstore"
)

// Server fronts a set of view labels with the batch query engine: one label
// per view name, all sharing a worker pool. It is the serving half of the
// snapshot workflow — wflabel persists the specification and the view
// definitions, labelstore.Load relabels the views under an allocation
// budget funded by the snapshot's size, NewServerFromSnapshot serves the
// loaded labels, and every query after that runs against them.
type Server struct {
	engine *Engine
	scheme *core.Scheme
	labels map[string]*core.ViewLabel
}

// NewServer builds a server over already-constructed labels. Every label
// must belong to the scheme's specification and view names must be unique.
// The worker count is normalized by EffectiveWorkers (workers <= 0 means
// GOMAXPROCS).
func NewServer(scheme *core.Scheme, labels []*core.ViewLabel, workers int) (*Server, error) {
	if scheme == nil {
		return nil, fmt.Errorf("engine: nil scheme")
	}
	s := &Server{engine: New(workers), scheme: scheme, labels: map[string]*core.ViewLabel{}}
	for i, vl := range labels {
		if vl == nil {
			return nil, fmt.Errorf("engine: label %d is nil", i)
		}
		name := vl.View().Name
		if vl.View().Spec != scheme.Spec {
			return nil, fmt.Errorf("engine: view %q belongs to a different specification: %w", name, faults.ErrForeignLabel)
		}
		if _, dup := s.labels[name]; dup {
			return nil, fmt.Errorf("engine: two labels for view %q", name)
		}
		s.labels[name] = vl
	}
	return s, nil
}

// NewServerFromSnapshot serves a loaded label snapshot directly; the worker
// count is normalized by EffectiveWorkers (workers <= 0 means GOMAXPROCS).
func NewServerFromSnapshot(snap *labelstore.Snapshot, workers int) (*Server, error) {
	if snap == nil {
		return nil, fmt.Errorf("engine: nil snapshot")
	}
	return NewServer(snap.Scheme, snap.Labels, workers)
}

// Scheme returns the scheme the server's labels were computed over.
func (s *Server) Scheme() *core.Scheme { return s.scheme }

// Engine returns the server's batch query engine.
func (s *Server) Engine() *Engine { return s.engine }

// Views returns the served view names in sorted order.
func (s *Server) Views() []string {
	out := make([]string, 0, len(s.labels))
	for name := range s.labels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Label returns the label serving the named view.
func (s *Server) Label(viewName string) (*core.ViewLabel, bool) {
	vl, ok := s.labels[viewName]
	return vl, ok
}

// view returns the label serving the named view; every batch wrapper of the
// server resolves its view here, so an unknown name fails each of them with
// the same error wrapping faults.ErrUnknownView.
func (s *Server) view(viewName string) (*core.ViewLabel, error) {
	if vl, ok := s.labels[viewName]; ok {
		return vl, nil
	}
	return nil, fmt.Errorf("engine: no label for view %q (serving %v): %w", viewName, s.Views(), faults.ErrUnknownView)
}

// DependsOnBatchContext answers a batch of queries against the named view.
// Per-query problems surface in the corresponding Result; a canceled context
// aborts the batch at claim-block granularity with an error wrapping
// faults.ErrCanceled (see Engine.DependsOnBatchContext), and an unknown view
// name fails with an error wrapping faults.ErrUnknownView.
func (s *Server) DependsOnBatchContext(ctx context.Context, viewName string, queries []Query) ([]Result, error) {
	vl, err := s.view(viewName)
	if err != nil {
		return nil, err
	}
	return s.engine.DependsOnBatchContext(ctx, vl, queries)
}

// DependsOnItemsBatchContext is the session-aware batch path at the server
// level: item-ID queries against the named view, with labels resolved
// through src — typically a live session's pinned prefix, so the whole
// batch is answered against one consistent step prefix of an in-flight run.
// Unknown views fail with faults.ErrUnknownView; unresolvable item IDs fail
// only their own Result (faults.ErrUnknownItem); cancellation matches
// Engine.DependsOnItemsBatchContext.
func (s *Server) DependsOnItemsBatchContext(ctx context.Context, viewName string, src LabelSource, queries []ItemQuery) ([]Result, error) {
	vl, err := s.view(viewName)
	if err != nil {
		return nil, err
	}
	return s.engine.DependsOnItemsBatchContext(ctx, vl, src, queries)
}

// DependsOnIndexBatchContext is DependsOnItemsBatchContext with the IDs
// resolved through a pinned item index instead of a label source (see
// Engine.DependsOnIndexBatchContext). Unknown views fail with
// faults.ErrUnknownView.
func (s *Server) DependsOnIndexBatchContext(ctx context.Context, viewName string, idx *core.ItemIndex, queries []ItemQuery) ([]Result, error) {
	vl, err := s.view(viewName)
	if err != nil {
		return nil, err
	}
	return s.engine.DependsOnIndexBatchContext(ctx, vl, idx, queries)
}
