// Package live serves dependency queries over runs that are still executing.
// The paper's central claim is that runs are labeled on-the-fly (Section
// 4.2.3): a data item's label is final the moment the item is produced, so
// reachability questions can be answered during the run, not only after it.
// This package closes the gap between that claim and the batch consumers of
// the rest of the system: a Session drives a run.Deriver and a
// core.RunLabeler behind an epoch-based single-writer/multi-reader protocol.
// A label is a pure function of the step and its parent instance's label, so
// a session holds the labels and the derivation's frontier, never the run.
//
// # The epoch protocol
//
// Producers call Apply, which serializes on the session's mutex, advances
// the derivation one step at a time and lets the labeler assign labels to
// the new data items. After each step the session publishes an immutable Prefix — the
// epoch number (= derivation steps applied), the labels assigned so far and
// the step requests that produced them — through one atomic pointer store.
//
// Readers never take a lock and are never stopped: Current() is one atomic
// load, and everything reachable from the returned Prefix is frozen. Three
// facts make this safe without copying any per-item state:
//
//   - data labels are write-once: the labeler never modifies a label after
//     assigning it (the view-adaptive property — that is what makes the
//     scheme dynamic), so sharing the labeler's table is sound;
//   - item and instance IDs are contiguous, so the labels live in the
//     labeler's own table (core.RunLabeler.Prefix): one record per item
//     and one path per instance, which refuses an item out of order; the
//     producer appends to its private tail and publishes a length-capped
//     alias, so a reader's slice headers can never see an in-flight append;
//   - the atomic pointer store happens after every write the Prefix exposes,
//     so the publish is also the memory barrier (release/acquire).
//
// Every published Prefix therefore corresponds to an exact step prefix of
// the derivation, and every answer computed from one Prefix is consistent
// with that prefix — the invariant the race and differential tests assert.
//
// A Session is restartable: Prefix.WriteJournal exports the steps of any
// epoch, a JournalSink (WithJournalSink) persists each applied step as it is
// applied, and Resume and Restore rebuild a session from its steps: they
// derive every step, size the label table once and label them. The journal
// codec lives in journal.go.
package live

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/run"
)

// StepRequest asks a session to expand the composite module instance
// Instance with the production of 1-based index Prod. It is also the record
// type of the step journal.
type StepRequest struct {
	Instance int
	Prod     int
}

// Option configures a Session.
type Option func(*Session)

// JournalSink receives every successfully applied step before it is
// published, so a crashed or stopped session can be rebuilt from what it
// received. A JournalWriter is one; the durable session store is another,
// appending to segment files with its own rotation and sync policy. An
// Append error poisons the session — the failed step is never published, and
// further producer calls fail — because a session that silently outruns its
// journal would no longer be restartable.
type JournalSink interface {
	Append(StepRequest) error
}

// WithJournalSink attaches a step sink (see JournalSink).
func WithJournalSink(sink JournalSink) Option {
	return func(s *Session) { s.sink = sink }
}

// Session is a live run: a derivation in progress whose data items are
// labeled the moment they are produced, and whose labels can be read by any
// number of concurrent readers while producers keep appending steps.
//
// The producer method (Apply) is safe for concurrent use and serializes
// internally; reader methods (Current, Label, Epoch, Items) are lock-free.
type Session struct {
	scheme  *core.Scheme
	deriver *run.Deriver
	labeler *core.RunLabeler

	mu     sync.Mutex
	sink   JournalSink
	failed error
	steps  []StepRequest

	cur atomic.Pointer[Prefix]
}

// NewSession starts a live run of the scheme's specification: the unexpanded
// start module with its initial inputs and final outputs, all labeled, at
// epoch 0.
func NewSession(scheme *core.Scheme, opts ...Option) (*Session, error) {
	return Restore(scheme, nil, opts...)
}

// Resume rebuilds a session from a step journal (exported with
// Prefix.WriteJournal, or appended step by step through a JournalWriter)
// with Restore. The journal bytes are untrusted: corruption fails with
// ErrCorruptJournal, and a step that does not apply to the specification
// fails with a *StepError.
func Resume(scheme *core.Scheme, journal io.Reader) (*Session, error) {
	steps, err := ReadJournal(journal)
	if err != nil {
		return nil, err
	}
	return Restore(scheme, steps)
}

// StepError reports a restored step that does not apply to the
// specification.
type StepError struct {
	Step int // 1-based position of the step in the restored sequence
	Err  error
}

func (e *StepError) Error() string { return fmt.Sprintf("live: restoring step %d: %v", e.Step, e.Err) }

func (e *StepError) Unwrap() error { return e.Err }

// Restore opens a session at the epoch the steps reach — steps replayed
// from a journal (Resume) or recovered from a durable directory. A data
// label is a pure function of the derivation, so the steps are the whole
// state: they are derived, labeled by core.RunLabeler.LabelSteps into a
// table sized for them once, and published once. The session takes
// ownership of the steps slice and continues from there.
//
// A step that does not apply fails with a *StepError naming it. Options
// apply as in NewSession, except that a sink attached here starts at the
// restored epoch — the restored steps are not re-appended (they are already
// durable wherever the caller recovered them from).
func Restore(scheme *core.Scheme, steps []StepRequest, opts ...Option) (*Session, error) {
	return RestoreContext(context.Background(), scheme, steps, opts...)
}

// RestoreContext is Restore with cancellation: labeling the steps observes
// the context every 256 steps, and canceling it fails with an error
// wrapping faults.ErrCanceled.
func RestoreContext(ctx context.Context, scheme *core.Scheme, steps []StepRequest, opts ...Option) (*Session, error) {
	if scheme == nil {
		return nil, fmt.Errorf("live: nil scheme")
	}
	s := &Session{scheme: scheme, deriver: scheme.NewDeriver(), labeler: scheme.NewRunLabeler(), steps: steps}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.labeler.OnInit(scheme.Spec); err != nil {
		return nil, err
	}
	derived := make([]run.Step, len(steps))
	for i, req := range steps {
		step, err := s.deriver.Apply(req.Instance, req.Prod)
		if err != nil {
			return nil, &StepError{Step: i + 1, Err: err}
		}
		derived[i] = step
	}
	if err := s.labeler.LabelSteps(ctx, derived); err != nil {
		return nil, err
	}
	s.publishLocked()
	return s, nil
}

// Exclusive runs fn with the session's producer lock held, passing the
// latest published prefix. No step can be applied while fn runs, so the
// prefix is the session's whole state for the duration — the window a
// durable checkpoint is captured in (its steps, Prefix.WriteJournal) and
// a sink is closed in. fn must not call back into the session.
//
// A poisoned session refuses: after a labeling or journal failure the
// in-memory state may be ahead of the last published epoch, so there is no
// consistent state to expose.
func (s *Session) Exclusive(fn func(p *Prefix) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("live: session is poisoned: %w", s.failed)
	}
	return fn(s.cur.Load())
}

// publishLocked publishes the current producer state as a new Prefix. The
// slices are length-capped so a reader can never observe a later append
// through an aliased tail.
func (s *Session) publishLocked() {
	k := len(s.steps)
	s.cur.Store(&Prefix{
		epoch:  uint64(k),
		labels: s.labeler.Prefix(),
		steps:  s.steps[:k:k],
	})
}

// Apply expands the composite instance with the 1-based production index,
// labels the data items the step produced and publishes the new epoch. It
// returns the epoch at which the step became visible to readers.
//
// A rejected step (unknown instance, wrong production) leaves the session
// unchanged and usable. A labeling or journal failure poisons the session:
// the step is never published, readers keep answering at the last good
// epoch, and every later producer call fails with the original error.
func (s *Session) Apply(instance, prod int) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, fmt.Errorf("live: session is poisoned: %w", s.failed)
	}
	step, err := s.deriver.Apply(instance, prod)
	if err != nil {
		return 0, err
	}
	if err := s.labeler.OnStep(&step); err != nil {
		s.failed = err
		return 0, fmt.Errorf("live: labeling step %d poisoned the session: %w", step.Index, err)
	}
	req := StepRequest{Instance: instance, Prod: prod}
	if s.sink != nil {
		if err := s.sink.Append(req); err != nil {
			s.failed = fmt.Errorf("live: journaling step %d: %w", step.Index, err)
			return 0, s.failed
		}
	}
	s.steps = append(s.steps, req)
	s.publishLocked()
	return uint64(len(s.steps)), nil
}

// Current returns the session's latest published prefix: one atomic load,
// never blocking producers. The returned Prefix is immutable; hold it to
// answer a whole batch of queries against one consistent epoch.
func (s *Session) Current() *Prefix { return s.cur.Load() }

// Epoch returns the latest published epoch (the number of derivation steps
// visible to readers).
func (s *Session) Epoch() uint64 { return s.Current().Epoch() }

// Items returns the number of labeled data items at the latest epoch.
func (s *Session) Items() int { return s.Current().Items() }

// Label returns the label of the data item at the latest epoch.
func (s *Session) Label(itemID int) (core.DataLabel, bool) {
	return s.Current().Label(itemID)
}

// Scheme returns the labeling scheme the session labels with.
func (s *Session) Scheme() *core.Scheme { return s.scheme }

// Frontier returns the IDs of the unexpanded composite instances — the
// steps a producer may apply next. It reflects every applied step, including
// ones a concurrent producer applied after the latest Current() load.
func (s *Session) Frontier() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deriver.Frontier()
}

// IsComplete reports whether every composite instance has been expanded.
func (s *Session) IsComplete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deriver.IsComplete()
}

// Expandable returns the 1-based indices of the productions that can expand
// the given instance — the valid Prod values of a StepRequest for it. It
// returns nil when the instance is unknown, already expanded, or atomic, so
// producers can drive a run knowing only frontier IDs.
func (s *Session) Expandable(instanceID int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deriver.Expandable(instanceID)
}

// Err returns the error that poisoned the session, or nil.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Prefix is an immutable snapshot of a session at one epoch: the labels of
// every data item produced by the first Epoch() derivation steps. It answers
// label lookups lock-free and implements the label-resolution interface of
// the engine's session-aware batch path (engine.LabelSource).
type Prefix struct {
	epoch  uint64
	labels core.RunLabeler
	steps  []StepRequest
}

// Epoch returns the number of derivation steps this prefix covers.
func (p *Prefix) Epoch() uint64 { return p.epoch }

// Items returns the number of data items labeled at this prefix.
func (p *Prefix) Items() int { return p.labels.Count() }

// Label returns the label of the data item, or false when the item had not
// been produced by this prefix (or the ID is unknown).
func (p *Prefix) Label(itemID int) (core.DataLabel, bool) { return p.labels.Label(itemID) }

// Steps returns a copy of the step requests the prefix covers, in
// application order — the journal of the prefix as values.
func (p *Prefix) Steps() []StepRequest {
	return append([]StepRequest(nil), p.steps...)
}

// WriteJournal exports the prefix's steps in the journal format, so the
// session can be rebuilt up to exactly this epoch with Resume.
func (p *Prefix) WriteJournal(w io.Writer) error {
	jw, err := NewJournalWriter(w)
	if err != nil {
		return err
	}
	for _, req := range p.steps {
		if err := jw.Append(req); err != nil {
			return err
		}
	}
	return nil
}
