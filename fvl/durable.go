package fvl

import (
	"repro/internal/durable"
)

// SyncOnCheckpoint as the WithSyncEvery argument defers fsync to segment
// rotation, checkpoints and Close — the fastest and least durable policy: a
// crash can lose every step since the last of those events.
const SyncOnCheckpoint = durable.SyncOnCheckpoint

// DurableOption configures a durable session directory.
type DurableOption func(*durable.Options)

// WithSyncEvery sets the fsync policy: the journal is synced after every n
// applied steps. The default 1 syncs every step — an acknowledged step is
// never lost; larger values trade a bounded window of recent steps for
// throughput, and SyncOnCheckpoint syncs only at rotation, checkpoints and
// Close.
func WithSyncEvery(n int) DurableOption {
	return func(o *durable.Options) { o.SyncEvery = n }
}

func durableOpts(opts []DurableOption) durable.Options {
	var o durable.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// RecoveryInfo reports what ResumeDurable did.
type RecoveryInfo struct {
	// CheckpointStep is the epoch of the checkpoint recovery started from
	// (zero when the session had none).
	CheckpointStep int
	// ReplayedSteps is the number of journal steps read past the
	// checkpoint; the checkpoint's own steps come from its file.
	ReplayedSteps int
	// TornTruncated reports that a torn trailing record was discarded.
	TornTruncated bool
}

// DurableSession is a live session whose state survives a process crash: it
// embeds a Session — producers and readers use the exact same API — and adds
// a session directory holding a journal of every applied step plus optional
// checkpoints. Every step is on disk before it becomes visible to readers
// (under the WithSyncEvery policy). The steps are the whole durable state:
// labels are a function of the derivation, so ResumeDurable rebuilds the
// run and labels it once instead of reading labels back.
type DurableSession struct {
	*Session
	ds *durable.Session
}

// OpenDurable starts a new durable live session in dir, which is created if
// missing and must not already hold a session (resume one with
// ResumeDurable). The session serves queries exactly like OpenLive; its
// steps additionally land in the directory's journal before publication.
func (s *Service) OpenDurable(dir string, opts ...DurableOption) (*DurableSession, error) {
	ds, err := durable.Create(s.scheme, dir, durableOpts(opts))
	if err != nil {
		return nil, err
	}
	return &DurableSession{Session: &Session{svc: s, ls: ds.Live()}, ds: ds}, nil
}

// ResumeDurable reopens a session directory after a crash or a clean close:
// it reads the steps of the latest checkpoint and the journal tail past it,
// truncating at most one torn trailing record of the last segment,
// derives them, sizes the label table once and labels them, and returns
// the session ready to append more steps. The directory is untrusted
// input — structural damage is classified by ErrCorruptManifest,
// ErrCorruptCheckpoint, ErrCorruptJournal, ErrTornJournal, ErrInvalidStep
// and ErrForeignLabel; a directory written for another specification or
// scheme kind fails with ErrForeignLabel.
func (s *Service) ResumeDurable(dir string, opts ...DurableOption) (*DurableSession, error) {
	ds, err := durable.Recover(s.scheme, dir, durableOpts(opts))
	if err != nil {
		return nil, err
	}
	return &DurableSession{Session: &Session{svc: s, ls: ds.Live()}, ds: ds}, nil
}

// Dir returns the session directory.
func (d *DurableSession) Dir() string { return d.ds.Dir() }

// Checkpoint writes the steps applied so far into one checkpoint file and
// compacts the journal segments it covers. Producers are paused for the
// duration; readers are not. After a checkpoint, ResumeDurable reads the
// checkpoint's steps from that file and only the steps applied since it
// from the journal.
func (d *DurableSession) Checkpoint() error { return d.ds.Checkpoint() }

// LastCheckpoint returns the epoch of the latest durable checkpoint (zero if
// none).
func (d *DurableSession) LastCheckpoint() int { return d.ds.LastCheckpoint() }

// Recovery reports what ResumeDurable did, or nil for a session opened by
// OpenDurable.
func (d *DurableSession) Recovery() *RecoveryInfo {
	info := d.ds.Recovery()
	if info == nil {
		return nil
	}
	return &RecoveryInfo{
		CheckpointStep: info.CheckpointStep,
		ReplayedSteps:  info.ReplayedSteps,
		TornTruncated:  info.TornTruncated,
	}
}

// Close syncs and closes the session's journal. The directory stays fully
// recoverable; Close never checkpoints.
func (d *DurableSession) Close() error { return d.ds.Close() }
