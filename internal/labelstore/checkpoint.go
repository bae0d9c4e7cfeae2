package labelstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/run"
)

// A checkpoint is the second artifact kind this package owns: where a
// snapshot (labelstore.go) persists a scheme and its view labels, a
// checkpoint persists the mid-run state of a live session — the run's
// derivation steps, the labels assigned to its data items, and the frontier
// paths of its labeler — so durable recovery can restore a session and
// relabel only the journal tail written after the checkpoint, instead of the
// whole run.
//
// A run is fully determined by its sequence of production applications, so
// the checkpoint stores no instance, port or item: loading rebuilds the run
// by replaying the recorded steps structurally (run.Replay: run.New plus
// Run.Apply per step, with no labeler attached), and takes every label from
// the checkpoint. No step
// before the journal tail is relabeled.
//
// The framing is the snapshot's (magic + CRC-32 + length + payload), with
// its own magic:
//
//	offset  size  field
//	0       8     magic "FVLCKPT\x02" (the last byte is the format version)
//	8       4     uint32 LE: CRC-32 (IEEE) of the payload
//	12      8     uint64 LE: payload length in bytes
//	20      —     payload
//
// and the payload is:
//
//	byte    scheme kind (0 = compact, 1 = basic)
//	bytes   the specification as the workflow package's JSON document
//	uvarint step count, then per step: uvarint instance, uvarint production
//	uvarint label count (= the replayed run's item count), then per item in
//	  ID order: uvarint label bit count, bytes label (Codec.Encode image)
//	uvarint frontier count, then per frontier instance: uvarint instance,
//	  uvarint path bit count, bytes path (Codec.EncodePath image)
//
// A checkpoint read back is untrusted input: the checksum catches accidental
// corruption, replay re-derives every binding from the grammar (a step that
// does not apply is corruption, so no forged checkpoint can describe a run
// that no derivation produces), the label count must match the replayed
// run, the codec's strict decoders re-validate every label and path, the
// paths must cover the replayed frontier exactly, and any failure is
// reported wrapping faults.ErrCorruptCheckpoint. A checkpoint of any other
// format version is refused the same way. The one non-corruption failure is a
// specification mismatch — a checkpoint of a different workflow than the
// scheme it is opened with — which wraps faults.ErrForeignLabel instead,
// exactly like a foreign view label.

// checkpointMagic identifies a session checkpoint; the final byte is the
// format version.
var checkpointMagic = [8]byte{'F', 'V', 'L', 'C', 'K', 'P', 'T', 0x02}

// CheckpointState is the restored form of a session checkpoint: the run
// rebuilt by replaying the checkpoint's steps, and the labeler holding the
// checkpoint's label for every item of that run. Its epoch is
// len(Run.Steps).
type CheckpointState struct {
	Run     *run.Run
	Labeler *core.RunLabeler
}

// SaveCheckpoint persists the state of a run and its labeler. The pair must
// be consistent — every data item labeled, every frontier instance placed in
// the parse tree — which is exactly what a live session guarantees inside
// Session.Exclusive.
func SaveCheckpoint(w io.Writer, scheme *core.Scheme, r *run.Run, labeler *core.RunLabeler) error {
	if scheme == nil || r == nil || labeler == nil {
		return fmt.Errorf("labelstore: checkpoint needs a scheme, a run and a labeler")
	}
	if r.Spec != scheme.Spec {
		return fmt.Errorf("labelstore: checkpointed run: %w", faults.ErrForeignLabel)
	}
	payload, err := encodeCheckpoint(scheme, r, labeler)
	if err != nil {
		return err
	}
	header := make([]byte, headerSize)
	copy(header, checkpointMagic[:])
	binary.LittleEndian.PutUint32(header[8:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(header[12:], uint64(len(payload)))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

func encodeCheckpoint(scheme *core.Scheme, r *run.Run, labeler *core.RunLabeler) ([]byte, error) {
	var buf []byte
	if scheme.IsBasic() {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	spec, err := json.Marshal(scheme.Spec)
	if err != nil {
		return nil, err
	}
	buf = appendBytes(buf, spec)

	buf = binary.AppendUvarint(buf, uint64(len(r.Steps)))
	for _, s := range r.Steps {
		buf = binary.AppendUvarint(buf, uint64(s.Instance))
		buf = binary.AppendUvarint(buf, uint64(s.Prod))
	}

	buf = binary.AppendUvarint(buf, uint64(len(r.Items)))
	codec := scheme.Codec()
	for _, item := range r.Items {
		d, ok := labeler.Label(item.ID)
		if !ok {
			return nil, fmt.Errorf("labelstore: item %d has no label to checkpoint", item.ID)
		}
		lbuf, nbit := codec.Encode(d)
		buf = binary.AppendUvarint(buf, uint64(nbit))
		buf = appendBytes(buf, lbuf)
	}

	paths, err := labeler.FrontierPaths(r)
	if err != nil {
		return nil, fmt.Errorf("labelstore: checkpointing labeler state: %w", err)
	}
	// Frontier() returns IDs in ascending order, so iterating it (rather
	// than the map) keeps checkpoints byte-for-byte deterministic.
	frontier := r.Frontier()
	buf = binary.AppendUvarint(buf, uint64(len(frontier)))
	for _, id := range frontier {
		pbuf, nbit := codec.EncodePath(paths[id])
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(nbit))
		buf = appendBytes(buf, pbuf)
	}
	return buf, nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint and restores
// the run and labeler against the given scheme. Structural failures wrap
// faults.ErrCorruptCheckpoint; a checkpoint of a different specification (or
// a different scheme kind) wraps faults.ErrForeignLabel.
func LoadCheckpoint(r io.Reader, scheme *core.Scheme) (*CheckpointState, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return LoadCheckpointBytes(data, scheme)
}

// LoadCheckpointBytes is LoadCheckpoint over in-memory bytes.
func LoadCheckpointBytes(data []byte, scheme *core.Scheme) (*CheckpointState, error) {
	if scheme == nil {
		return nil, fmt.Errorf("labelstore: nil scheme")
	}
	st, err := loadCheckpoint(data, scheme)
	if err != nil {
		if errors.Is(err, faults.ErrForeignLabel) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", faults.ErrCorruptCheckpoint, err)
	}
	return st, nil
}

func loadCheckpoint(data []byte, scheme *core.Scheme) (*CheckpointState, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("labelstore: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if !bytes.Equal(data[:8], checkpointMagic[:]) {
		return nil, fmt.Errorf("labelstore: bad magic %q (not a session checkpoint, or an unsupported version)", data[:8])
	}
	sum := binary.LittleEndian.Uint32(data[8:])
	length := binary.LittleEndian.Uint64(data[12:])
	payload := data[headerSize:]
	if length != uint64(len(payload)) {
		return nil, fmt.Errorf("labelstore: header declares %d payload bytes, %d present", length, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("labelstore: checksum mismatch: header %08x, payload %08x", sum, got)
	}
	d := &decoder{data: payload}

	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	if kind > 1 {
		return nil, fmt.Errorf("labelstore: unknown scheme kind %d", kind)
	}
	specBytes, err := d.bytes()
	if err != nil {
		return nil, err
	}
	// The checkpoint is restored against the caller's scheme, so the embedded
	// specification only needs to match it — byte-compare against the same
	// deterministic marshaling SaveCheckpoint used.
	ourSpec, err := json.Marshal(scheme.Spec)
	if err != nil {
		return nil, err
	}
	if (kind == 1) != scheme.IsBasic() || !bytes.Equal(specBytes, ourSpec) {
		return nil, fmt.Errorf("labelstore: checkpoint: %w", faults.ErrForeignLabel)
	}

	// Replay the steps structurally. Apply re-derives every instance, port
	// and item from the grammar and refuses a step that does not apply.
	numSteps, err := d.count("step list", 2)
	if err != nil {
		return nil, err
	}
	steps := make([][2]int, numSteps)
	for i := range steps {
		if steps[i][0], err = d.int("step instance"); err != nil {
			return nil, err
		}
		if steps[i][1], err = d.int("step production"); err != nil {
			return nil, err
		}
	}
	restored, err := run.Replay(scheme.Spec, steps)
	if err != nil {
		return nil, err
	}

	numLabels, err := d.count("label list", 2)
	if err != nil {
		return nil, err
	}
	if numLabels != len(restored.Items) {
		return nil, fmt.Errorf("labelstore: %d labels for a run of %d items", numLabels, len(restored.Items))
	}
	codec := scheme.Codec()
	labels := make([]*core.DataLabel, numLabels)
	for i := range labels {
		nbit, err := d.int("label bit count")
		if err != nil {
			return nil, err
		}
		lbuf, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if labels[i], err = codec.Decode(lbuf, nbit); err != nil {
			return nil, fmt.Errorf("labelstore: item %d label: %w", i+1, err)
		}
	}

	numPaths, err := d.count("frontier list", 3)
	if err != nil {
		return nil, err
	}
	paths := make(map[int][]core.EdgeLabel, numPaths)
	for e := 0; e < numPaths; e++ {
		id, err := d.int("frontier instance")
		if err != nil {
			return nil, err
		}
		if _, dup := paths[id]; dup {
			return nil, fmt.Errorf("labelstore: two paths for frontier instance %d", id)
		}
		nbit, err := d.int("path bit count")
		if err != nil {
			return nil, err
		}
		pbuf, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if paths[id], err = codec.DecodePath(pbuf, nbit); err != nil {
			return nil, fmt.Errorf("labelstore: frontier instance %d path: %w", id, err)
		}
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("labelstore: %d trailing payload bytes after the checkpoint", len(d.data)-d.pos)
	}

	// The persisted paths must cover the restored frontier exactly: a missing
	// path would poison the session at the next expansion, an extra one is a
	// forgery the labeler would silently carry.
	frontier := restored.Frontier()
	if len(paths) != len(frontier) {
		return nil, fmt.Errorf("labelstore: %d frontier paths for %d frontier instances", len(paths), len(frontier))
	}
	for _, id := range frontier {
		if _, ok := paths[id]; !ok {
			return nil, fmt.Errorf("labelstore: frontier instance %d has no path", id)
		}
	}
	labeler, err := scheme.RestoreRunLabeler(restored, labels, paths)
	if err != nil {
		return nil, err
	}
	return &CheckpointState{Run: restored, Labeler: labeler}, nil
}

// int reads one bounded non-negative integer.
func (d *decoder) int(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	n, err := toInt(v)
	if err != nil {
		return 0, fmt.Errorf("labelstore: %s: %w", what, err)
	}
	return n, nil
}
