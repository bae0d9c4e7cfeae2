package fvl

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/live"
)

// StepRequest asks a live session to expand the composite module instance
// Instance with the production of 1-based index Production.
type StepRequest struct {
	Instance   int
	Production int
}

// ItemQuery is one reachability question posed by data item ID: does the
// item with ID To depend on the item with ID From? Item IDs are the ones
// Run/Session report (1-based, in production order).
type ItemQuery = engine.ItemQuery

// OpenLive starts a live run session over the service's specification: a
// derivation in progress whose data items are labeled the moment they are
// produced, and whose dependency queries are answered — against the
// service's views, over the same worker pool as DependsOnBatch — while the
// run is still executing. No relabeling ever happens and readers never stop
// the producers: each batch pins one published step prefix (epoch) and every
// answer is consistent with exactly that prefix.
func (s *Service) OpenLive() (*Session, error) {
	ls, err := live.NewSession(s.scheme)
	if err != nil {
		return nil, err
	}
	return &Session{svc: s, ls: ls}, nil
}

// ResumeLive rebuilds a live session from a step journal (written by
// Session.WriteJournal): the recorded steps are derived and labeled in one
// pass, restoring the session at the journaled epoch. The journal is
// untrusted input — corruption fails with ErrCorruptJournal, and steps that
// do not apply to this service's specification fail with the underlying
// derivation error.
func (s *Service) ResumeLive(journal io.Reader) (*Session, error) {
	ls, err := live.Resume(s.scheme, journal)
	if err != nil {
		return nil, err
	}
	return &Session{svc: s, ls: ls}, nil
}

// ResumeLiveFile rebuilds a live session from a journal file. A close error
// is propagated, not swallowed: on some filesystems it is the first sign the
// journal bytes never all made it to disk.
func (s *Service) ResumeLiveFile(path string) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sess, err := s.ResumeLive(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("fvl: journal %s: %w", path, err)
	}
	return sess, nil
}

// Session is a live run being served: producers append derivation steps
// while concurrent readers query dependencies against the labels assigned so
// far. Apply serializes producers internally; query methods are lock-free
// on the session side and fan out over the service's worker pool.
type Session struct {
	svc *Service
	ls  *live.Session

	// idx caches the item index of the most recently pinned step prefix.
	// Set batches build or extend it (see Session.QueryBatch); point batches
	// only read it, when it is already at their pinned epoch (see
	// Session.DependsOnBatch).
	idx sessionIndex
}

// Service returns the service whose views the session queries.
func (s *Session) Service() *Service { return s.svc }

// Apply expands the composite instance with the 1-based production index,
// labeling the new data items on the fly. It returns the epoch (derivation
// step count) at which the step became visible to concurrent readers. A
// rejected step leaves the session unchanged; a labeling or journal failure
// poisons the session (see Err).
func (s *Session) Apply(instance, production int) (uint64, error) {
	return s.ls.Apply(instance, production)
}

// Epoch returns the number of derivation steps currently visible to readers.
func (s *Session) Epoch() uint64 { return s.ls.Epoch() }

// Items returns the number of labeled data items at the current epoch.
func (s *Session) Items() int { return s.ls.Items() }

// Frontier returns the IDs of the unexpanded composite instances — the
// steps a producer may apply next.
func (s *Session) Frontier() []int { return s.ls.Frontier() }

// IsComplete reports whether every composite instance has been expanded.
func (s *Session) IsComplete() bool { return s.ls.IsComplete() }

// Expandable returns the 1-based indices of the productions that can expand
// the given instance — the valid Production values of a StepRequest for it.
// It returns nil for unknown, already expanded, or atomic instances, so a
// producer can drive a run knowing only the frontier IDs.
func (s *Session) Expandable(instanceID int) []int { return s.ls.Expandable(instanceID) }

// Err returns the error that poisoned the session, or nil. A poisoned
// session keeps answering reader queries at the last good epoch; only
// producer calls fail.
func (s *Session) Err() error { return s.ls.Err() }

// Label returns the label of the data item at the current epoch, or false
// when the item has not been produced yet.
func (s *Session) Label(itemID int) (Label, bool) {
	d, ok := s.ls.Label(itemID)
	return Label{d: d}, ok
}

// DependsOn answers one reachability question against the named view while
// the run executes: does the item with ID to depend on the item with ID
// from? The answer is computed from the latest published epoch. Items not
// yet produced fail with ErrUnknownItem, unknown views with ErrUnknownView.
func (s *Session) DependsOn(ctx context.Context, viewName string, from, to int) (bool, error) {
	results, _, err := s.DependsOnBatch(ctx, viewName, []ItemQuery{{From: from, To: to}})
	if err != nil {
		return false, err
	}
	return results[0].DependsOn, results[0].Err
}

// DependsOnBatch answers a batch of item-ID queries against the named view,
// fanned out over the service's worker pool. The whole batch pins one
// published step prefix: the returned epoch identifies it, and every answer
// is consistent with exactly that prefix — concurrent producers never tear
// a batch. Per-query problems (ErrUnknownItem for items the pinned prefix
// has not produced, ErrHiddenItem for items the view hides) surface in the
// corresponding Result; the batch itself fails only for unknown views
// (ErrUnknownView) or cancellation (ErrCanceled, with partial results).
//
// When a set batch (QueryBatch) has already indexed the pinned prefix, the
// point batch resolves its items through that cached item index, and the
// chain products the set batches cached per tree node answer it; otherwise
// it resolves each item to its label. Both paths give identical answers. A
// point batch never builds or extends the index itself: on a new epoch the
// index's fresh plans would have to compute, and clone, every product.
func (s *Session) DependsOnBatch(ctx context.Context, viewName string, queries []ItemQuery) ([]Result, uint64, error) {
	prefix := s.ls.Current()
	var res []Result
	var err error
	if idx := s.idx.at(prefix.Epoch()); idx != nil {
		res, err = s.svc.server.DependsOnIndexBatchContext(background(ctx), viewName, idx, queries)
	} else {
		res, err = s.svc.server.DependsOnItemsBatchContext(background(ctx), viewName, prefix, queries)
	}
	return res, prefix.Epoch(), err
}

// WriteJournal exports the session's current step prefix in the journal
// format: replaying it with ResumeLive rebuilds the session at exactly the
// exported epoch. Together with Service.Snapshot this is the mid-run
// persistence story — the journal restores the run, the snapshot rebuilds
// the serving labels — and neither export stops the producers.
func (s *Session) WriteJournal(w io.Writer) error {
	return s.ls.Current().WriteJournal(w)
}
