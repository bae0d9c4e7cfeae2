// Package durable stores live sessions on disk so a process crash never
// costs more than the unsynced suffix of a run. A session owns a directory
// of three artifact kinds:
//
//   - MANIFEST — a tiny checksummed commit record (manifest.go), rewritten
//     atomically; it names the segment capacity, the identity of the
//     session's specification and the latest durable checkpoint;
//   - seg-<base>.fvlj — fixed-capacity step-journal segments in the live
//     package's journal format; record j of a segment is derivation step
//     base+j, so segment names are also the journal's step index;
//   - ckpt-<step>.fvlc — checkpoints: the journal of steps 1..step in one
//     file (Prefix.WriteJournal), written atomically, so the segments it
//     covers can go.
//
// A data label is a pure function of the derivation, so the steps are the
// whole durable state: nothing derived from them is stored.
//
// Writes go segment-append → optional fsync, under a configurable policy
// (every step, every N steps, or only at checkpoints/rotation). Checkpoint
// ordering is: sync the active segment, write the checkpoint file
// atomically, then rewrite MANIFEST atomically — the manifest rename is the
// commit point — and finally compact: segments and checkpoints the new
// manifest makes unreachable are removed.
//
// Recovery (Recover) opens MANIFEST, checks the specification identity,
// reads the checkpoint it names (its length and CRC-32 are in the
// manifest) and the journal tail past its epoch, and opens the live session
// on those steps with live.Restore, which derives and labels them in one
// pass; no run is built. A session without a checkpoint takes the same path
// with an empty prefix. A torn trailing record — the signature of a crash
// mid-append — is truncated away (at most one, and only in the last
// segment; elsewhere it is ErrTornJournal). The crash-matrix test drives
// every one of these transitions through the fault-injecting filesystem in
// internal/iofault and checks the recovered labels are byte-identical to
// batch labeling of the recovered prefix.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/live"
)

// DefaultSegmentSteps is the default journal segment capacity, in steps.
const DefaultSegmentSteps = 1024

// SyncOnCheckpoint as Options.SyncEvery defers fsync to segment rotation,
// checkpoints and Close — the fastest and least durable policy: a crash can
// lose every step since the last of those events.
const SyncOnCheckpoint = -1

// Options configures a durable session.
type Options struct {
	// SegmentSteps is the journal segment capacity in steps (default
	// DefaultSegmentSteps). On Recover the value recorded in MANIFEST wins.
	SegmentSteps int
	// SyncEvery syncs the active segment after every N appended steps:
	// 1 (the default) after every step, SyncOnCheckpoint only at
	// rotation/checkpoint/close.
	SyncEvery int
	// FS is the filesystem (default DirFS).
	FS FS
}

func (o Options) withDefaults() (Options, error) {
	if o.FS == nil {
		o.FS = DirFS{}
	}
	if o.SegmentSteps == 0 {
		o.SegmentSteps = DefaultSegmentSteps
	}
	if o.SegmentSteps < 1 || o.SegmentSteps > maxManifestValue {
		return o, fmt.Errorf("durable: segment capacity %d out of range", o.SegmentSteps)
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = SyncOnCheckpoint
	}
	return o, nil
}

// RecoveryInfo reports what Recover did.
type RecoveryInfo struct {
	// CheckpointStep is the epoch of the checkpoint recovery started from
	// (zero when the session had none).
	CheckpointStep int
	// ReplayedSteps is the number of journal-segment steps past the
	// checkpoint; the checkpoint's own steps are read from its file.
	ReplayedSteps int
	// TornTruncated reports that a torn trailing record (or a torn header of
	// the last segment) was discarded.
	TornTruncated bool
}

// Session is a live session whose steps are durable: every applied step is
// appended to a journal segment before it is published, and Checkpoint
// folds the journal so far into one file so its segments can be compacted.
// Producer and reader methods live on Live(); a journal or filesystem
// failure poisons the live session exactly like a journal write failure.
type Session struct {
	mu       sync.Mutex
	fs       FS
	dir      string
	manifest Manifest // the committed MANIFEST
	sink     *segmentSink
	sess     *live.Session
	recovery *RecoveryInfo
	closed   bool
}

// Create starts a new durable session in dir, which must not already hold
// one. The directory is created if missing; MANIFEST is written before the
// first step can be appended, so the directory is recoverable from the
// moment Create returns.
func Create(scheme *core.Scheme, dir string, opts Options) (*Session, error) {
	if scheme == nil {
		return nil, fmt.Errorf("durable: nil scheme")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	fs := opts.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if f, err := fs.Open(filepath.Join(dir, manifestName)); err == nil {
		f.Close()
		return nil, fmt.Errorf("durable: %s already holds a session (use Recover)", dir)
	}
	spec, err := specIdentity(scheme)
	if err != nil {
		return nil, err
	}
	m := Manifest{SegmentSteps: opts.SegmentSteps, Spec: spec}
	data, err := EncodeManifest(m)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(fs, dir, manifestName, data); err != nil {
		return nil, fmt.Errorf("durable: writing manifest: %w", err)
	}
	sink := &segmentSink{fs: fs, dir: dir, segSteps: opts.SegmentSteps, syncEvery: opts.SyncEvery}
	sess, err := live.NewSession(scheme, live.WithJournalSink(sink))
	if err != nil {
		return nil, err
	}
	return &Session{fs: fs, dir: dir, manifest: m, sink: sink, sess: sess}, nil
}

// Recover reopens a session directory after a crash or a clean close: it
// derives and labels, into a label table sized once, the steps of the
// checkpoint MANIFEST names and of the journal tail past it, and returns a
// session ready to append more steps. See RecoveryInfo for what happened;
// structural failures are classified by the faults sentinels (ErrCorruptManifest,
// ErrCorruptCheckpoint, ErrCorruptJournal, ErrTornJournal, ErrInvalidStep,
// ErrForeignLabel).
func Recover(scheme *core.Scheme, dir string, opts Options) (*Session, error) {
	if scheme == nil {
		return nil, fmt.Errorf("durable: nil scheme")
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	fs := opts.FS

	data, err := readFile(fs, filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("durable: %s does not hold a recoverable session: %w", dir, err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, err
	}
	if spec, err := specIdentity(scheme); err != nil {
		return nil, err
	} else if spec != m.Spec {
		return nil, fmt.Errorf("durable: %s holds a session of another specification or scheme kind: %w", dir, faults.ErrForeignLabel)
	}
	steps, err := loadCheckpoint(fs, dir, m)
	if err != nil {
		return nil, err
	}
	segSteps := m.SegmentSteps
	listing, err := listDir(fs, dir)
	if err != nil {
		return nil, err
	}

	// Read the journal tail. Segments fully covered by the checkpoint are
	// skipped without decoding — a later segment's base proves every step of
	// its predecessor is at most that base.
	info := &RecoveryInfo{CheckpointStep: m.CheckpointStep}
	expected := m.CheckpointStep
	lastIdx := len(listing.segments) - 1
	lastBase, lastCount, lastRemoved := -1, 0, true
	for i, base := range listing.segments {
		if i < lastIdx && listing.segments[i+1] <= m.CheckpointStep {
			continue
		}
		name := segmentName(base)
		path := filepath.Join(dir, name)
		isLast := i == lastIdx
		f, err := fs.Open(path)
		if err != nil {
			return nil, err
		}
		jr, err := live.NewJournalReader(f)
		if err != nil {
			f.Close()
			if errors.Is(err, faults.ErrTornJournal) && isLast {
				// A crash before the header reached the disk left a segment
				// with no decodable record at all; drop it.
				if err := fs.Remove(path); err != nil {
					return nil, err
				}
				if err := fs.SyncDir(dir); err != nil {
					return nil, err
				}
				info.TornTruncated = true
				break
			}
			return nil, fmt.Errorf("durable: segment %s: %w", name, err)
		}
		if base > expected {
			f.Close()
			return nil, fmt.Errorf("durable: journal gap: steps %d..%d are on no segment: %w",
				expected+1, base, faults.ErrCorruptJournal)
		}
		for {
			req, err := jr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				if errors.Is(err, faults.ErrTornJournal) && isLast {
					if terr := fs.Truncate(path, jr.Offset()); terr != nil {
						return nil, terr
					}
					info.TornTruncated = true
					f = nil
					break
				}
				return nil, fmt.Errorf("durable: segment %s: %w", name, err)
			}
			stepNo := base + jr.Steps()
			if stepNo <= expected {
				continue // already covered by the checkpoint
			}
			steps = append(steps, req)
			expected = stepNo
		}
		if f != nil {
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		if jr.Steps() > segSteps {
			return nil, fmt.Errorf("durable: segment %s holds %d steps, capacity is %d: %w",
				name, jr.Steps(), segSteps, faults.ErrCorruptJournal)
		}
		lastBase, lastCount, lastRemoved = base, jr.Steps(), false
	}
	info.ReplayedSteps = expected - m.CheckpointStep

	sink := &segmentSink{fs: fs, dir: dir, segSteps: segSteps, syncEvery: opts.SyncEvery, step: expected}
	sess, err := live.Restore(scheme, steps, live.WithJournalSink(sink))
	var serr *live.StepError
	switch {
	case errors.As(err, &serr) && serr.Step <= m.CheckpointStep:
		return nil, fmt.Errorf("durable: checkpoint %d: %v (%w)", m.CheckpointStep, err, faults.ErrCorruptCheckpoint)
	case errors.As(err, &serr):
		return nil, fmt.Errorf("durable: replaying journal step %d: %w (%w)", serr.Step, serr.Err, faults.ErrInvalidStep)
	case err != nil:
		return nil, err
	}

	// Reopen the tail segment for appending when it is exactly the session's
	// frontier and has room; otherwise the next append opens a fresh segment
	// at the current epoch.
	if !lastRemoved && lastBase+lastCount == expected && lastCount < segSteps {
		f, err := fs.Append(filepath.Join(dir, segmentName(lastBase)))
		if err != nil {
			return nil, err
		}
		jw, err := live.ResumeJournalWriter(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		sink.file, sink.jw = f, jw
		sink.activeBase, sink.activeCount = lastBase, lastCount
	}

	s := &Session{fs: fs, dir: dir, manifest: m, sink: sink, sess: sess, recovery: info}
	// Clean up what a crash may have left behind: orphaned temp files from
	// interrupted atomic writes, and checkpoints the manifest never came to
	// reference (a crash between checkpoint write and manifest update).
	if err := s.removeOrphans(listing); err != nil {
		return nil, err
	}
	return s, nil
}

// Live returns the underlying live session: Apply to produce,
// Current/Label to read. Its semantics are unchanged from an in-memory
// session; durability rides on the attached journal sink.
func (s *Session) Live() *live.Session { return s.sess }

// Dir returns the session directory.
func (s *Session) Dir() string { return s.dir }

// Recovery reports what Recover did, or nil for a session opened by Create.
func (s *Session) Recovery() *RecoveryInfo { return s.recovery }

// LastCheckpoint returns the epoch of the latest durable checkpoint (zero if
// none).
func (s *Session) LastCheckpoint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifest.CheckpointStep
}

// Checkpoint folds the journal into one file at the current epoch: sync the
// active segment, write the prefix's steps as ckpt-<epoch>.fvlc atomically,
// commit it by rewriting MANIFEST with its length and CRC-32, then compact
// segments and checkpoints the new manifest makes unreachable. Producers
// are paused for the duration. After a crash at any point inside
// Checkpoint, recovery lands on whichever checkpoint the durable MANIFEST
// names.
func (s *Session) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: session is closed")
	}
	m := s.manifest
	err := s.sess.Exclusive(func(p *live.Prefix) error {
		if err := s.sink.syncActive(); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := p.WriteJournal(&buf); err != nil {
			return err
		}
		m.HasCheckpoint, m.CheckpointStep = true, int(p.Epoch())
		m.CheckpointBytes, m.CheckpointCRC = buf.Len(), crc32.ChecksumIEEE(buf.Bytes())
		if err := writeFileAtomic(s.fs, s.dir, checkpointName(m.CheckpointStep), buf.Bytes()); err != nil {
			return err
		}
		data, err := EncodeManifest(m)
		if err != nil {
			return err
		}
		return writeFileAtomic(s.fs, s.dir, manifestName, data)
	})
	if err != nil {
		return fmt.Errorf("durable: checkpoint: %w", err)
	}
	s.manifest = m
	listing, err := listDir(s.fs, s.dir)
	if err != nil {
		return err
	}
	return s.removeOrphans(listing)
}

// removeOrphans deletes artifacts the manifest makes unreachable: segments
// fully covered by the checkpoint (the following segment's base proves
// coverage; the last segment always stays), checkpoints other than the
// committed one, and temp files of interrupted atomic writes.
func (s *Session) removeOrphans(listing *dirListing) error {
	removed := false
	ckpt := s.manifest.CheckpointStep
	for i, base := range listing.segments {
		if i+1 < len(listing.segments) && listing.segments[i+1] <= ckpt {
			if err := s.fs.Remove(filepath.Join(s.dir, segmentName(base))); err != nil {
				return err
			}
			removed = true
		}
	}
	for _, step := range listing.checkpoints {
		if !s.manifest.HasCheckpoint || step != ckpt {
			if err := s.fs.Remove(filepath.Join(s.dir, checkpointName(step))); err != nil {
				return err
			}
			removed = true
		}
	}
	for _, name := range listing.temps {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return s.fs.SyncDir(s.dir)
	}
	return nil
}

// Close syncs and closes the active segment. The directory stays fully
// recoverable; Close never checkpoints. Closing twice is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.sess.Exclusive(func(*live.Prefix) error {
		return s.sink.close()
	})
	if err != nil && !s.sink.closed {
		// The session was poisoned, so Exclusive refused; no producer can
		// reach the sink anymore, close the file directly.
		err = s.sink.close()
	}
	return err
}

// segmentSink is the live.JournalSink that lands steps in segment files. It
// is only ever called under the live session's producer lock, so it needs no
// locking of its own.
type segmentSink struct {
	fs        FS
	dir       string
	segSteps  int
	syncEvery int

	closed bool

	step        int // derivation steps appended (the epoch, from the sink's view)
	file        File
	jw          *live.JournalWriter
	activeBase  int
	activeCount int
	sinceSync   int
}

// Append implements live.JournalSink: rotate if the active segment is full
// (or absent), append the record, and sync per policy. Any error poisons the
// owning live session, so a step is never published without being in the
// journal.
func (k *segmentSink) Append(req live.StepRequest) error {
	if k.closed {
		return fmt.Errorf("durable: session is closed")
	}
	if k.file == nil || k.activeCount >= k.segSteps {
		if err := k.rotate(); err != nil {
			return err
		}
	}
	if err := k.jw.Append(req); err != nil {
		return err
	}
	k.step++
	k.activeCount++
	k.sinceSync++
	if k.syncEvery > 0 && k.sinceSync >= k.syncEvery {
		if err := k.file.Sync(); err != nil {
			return err
		}
		k.sinceSync = 0
	}
	return nil
}

// rotate seals the active segment (sync + close) and opens the next one at
// the current epoch.
func (k *segmentSink) rotate() error {
	if k.file != nil {
		if err := k.file.Sync(); err != nil {
			return err
		}
		if err := k.file.Close(); err != nil {
			return err
		}
		k.file = nil
	}
	f, err := k.fs.Create(filepath.Join(k.dir, segmentName(k.step)))
	if err != nil {
		return err
	}
	jw, err := live.NewJournalWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := k.fs.SyncDir(k.dir); err != nil {
		f.Close()
		return err
	}
	k.file, k.jw = f, jw
	k.activeBase, k.activeCount = k.step, 0
	k.sinceSync = 1 // the header is pending
	return nil
}

// syncActive syncs the active segment, if any.
func (k *segmentSink) syncActive() error {
	if k.file == nil {
		return nil
	}
	if err := k.file.Sync(); err != nil {
		return err
	}
	k.sinceSync = 0
	return nil
}

// close seals the sink: sync and close the active segment, refuse further
// appends.
func (k *segmentSink) close() error {
	if k.closed {
		return nil
	}
	k.closed = true
	if k.file == nil {
		return nil
	}
	err := k.file.Sync()
	if cerr := k.file.Close(); err == nil {
		err = cerr
	}
	k.file = nil
	return err
}

// writeFileAtomic lands data under name in dir all-or-nothing: temp file in
// the same directory, write, sync, close, rename, directory sync. A crash at
// any point leaves either the old file or the new one at name — never a torn
// mix — plus at most an orphaned temp file, which recovery removes.
func writeFileAtomic(fs FS, dir, name string, data []byte) error {
	tmpName := name + tmpSuffix
	tmp := filepath.Join(dir, tmpName)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

func readFile(fs FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// loadCheckpoint reads the steps of the checkpoint the manifest names — none
// when there is none. The file must match the manifest's length and CRC-32
// and hold exactly the manifest's number of steps; anything else is
// ErrCorruptCheckpoint, as is a step that does not apply (Recover).
func loadCheckpoint(fs FS, dir string, m Manifest) ([]live.StepRequest, error) {
	if !m.HasCheckpoint {
		return nil, nil
	}
	data, err := readFile(fs, filepath.Join(dir, checkpointName(m.CheckpointStep)))
	if err != nil {
		return nil, fmt.Errorf("durable: manifest names checkpoint %d but it cannot be read: %w (%w)",
			m.CheckpointStep, err, faults.ErrCorruptCheckpoint)
	}
	steps, err := decodeCheckpoint(data, m)
	if err != nil {
		return nil, fmt.Errorf("durable: checkpoint %d: %v (%w)", m.CheckpointStep, err, faults.ErrCorruptCheckpoint)
	}
	return steps, nil
}

func decodeCheckpoint(data []byte, m Manifest) ([]live.StepRequest, error) {
	if len(data) != m.CheckpointBytes || crc32.ChecksumIEEE(data) != m.CheckpointCRC {
		return nil, fmt.Errorf("%d bytes do not match the manifest's length %d and CRC-32 %08x",
			len(data), m.CheckpointBytes, m.CheckpointCRC)
	}
	steps, err := live.DecodeJournal(data)
	if err != nil {
		return nil, err
	}
	if len(steps) != m.CheckpointStep {
		return nil, fmt.Errorf("holds %d steps", len(steps))
	}
	return steps, nil
}
