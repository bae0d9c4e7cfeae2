package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/faults"
)

// The MANIFEST is the commit record of a session directory: a tiny
// checksummed file naming the segment capacity and the latest durable
// checkpoint. It is always rewritten atomically (temp file + rename), so
// recovery either sees the old manifest or the new one, never a torn mix —
// which makes the manifest rewrite the commit point of a checkpoint.
//
//	offset  size  field
//	0       8     magic "FVLMANI\x01" (the last byte is the format version)
//	8       4     uint32 LE: CRC-32 (IEEE) of the payload
//	12      8     uint64 LE: payload length in bytes
//	20      —     payload: uvarint segment capacity (steps),
//	              byte checkpoint flag, uvarint checkpoint step
var manifestMagic = [8]byte{'F', 'V', 'L', 'M', 'A', 'N', 'I', 0x01}

const manifestHeaderSize = 8 + 4 + 8

// maxManifestValue bounds decoded manifest fields; far above any real
// session while keeping downstream int arithmetic safe.
const maxManifestValue = 1 << 30

// Manifest is the decoded MANIFEST content.
type Manifest struct {
	// SegmentSteps is the fixed capacity of every journal segment, in steps.
	SegmentSteps int
	// HasCheckpoint reports whether the session has a durable checkpoint.
	HasCheckpoint bool
	// CheckpointStep is the epoch the latest durable checkpoint covers; zero
	// when HasCheckpoint is false.
	CheckpointStep int
}

// EncodeManifest renders a manifest. It rejects field values the decoder
// would refuse, so the write path can only produce files the read path
// accepts.
func EncodeManifest(m Manifest) ([]byte, error) {
	if m.SegmentSteps < 1 || m.SegmentSteps > maxManifestValue {
		return nil, fmt.Errorf("durable: segment capacity %d out of range", m.SegmentSteps)
	}
	if m.CheckpointStep < 0 || m.CheckpointStep > maxManifestValue {
		return nil, fmt.Errorf("durable: checkpoint step %d out of range", m.CheckpointStep)
	}
	if !m.HasCheckpoint && m.CheckpointStep != 0 {
		return nil, fmt.Errorf("durable: checkpoint step %d without a checkpoint", m.CheckpointStep)
	}
	payload := binary.AppendUvarint(nil, uint64(m.SegmentSteps))
	if m.HasCheckpoint {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.AppendUvarint(payload, uint64(m.CheckpointStep))
	buf := make([]byte, manifestHeaderSize, manifestHeaderSize+len(payload))
	copy(buf, manifestMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(payload)))
	return append(buf, payload...), nil
}

// DecodeManifest parses a MANIFEST from untrusted bytes. Any structural
// problem — bad magic, checksum mismatch, truncation, out-of-range or
// non-canonical fields, trailing bytes — fails with an error wrapping
// faults.ErrCorruptManifest; the decoder never panics. Every accepted file
// re-encodes to exactly the input bytes.
func DecodeManifest(data []byte) (Manifest, error) {
	m, err := decodeManifest(data)
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: %w", faults.ErrCorruptManifest, err)
	}
	return m, nil
}

func decodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if len(data) < manifestHeaderSize {
		return m, fmt.Errorf("durable: %d bytes is shorter than the %d-byte manifest header", len(data), manifestHeaderSize)
	}
	if !bytes.Equal(data[:8], manifestMagic[:]) {
		return m, fmt.Errorf("durable: bad manifest magic %q", data[:8])
	}
	sum := binary.LittleEndian.Uint32(data[8:])
	length := binary.LittleEndian.Uint64(data[12:])
	payload := data[manifestHeaderSize:]
	if length != uint64(len(payload)) {
		return m, fmt.Errorf("durable: manifest declares %d payload bytes, %d present", length, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return m, fmt.Errorf("durable: manifest checksum mismatch: header %08x, payload %08x", sum, got)
	}
	segSteps, n := binary.Uvarint(payload)
	if n <= 0 || segSteps < 1 || segSteps > maxManifestValue {
		return m, fmt.Errorf("durable: bad segment capacity field")
	}
	rest := payload[n:]
	if len(rest) < 1 || rest[0] > 1 {
		return m, fmt.Errorf("durable: bad checkpoint flag")
	}
	hasCkpt := rest[0] == 1
	rest = rest[1:]
	ckptStep, n := binary.Uvarint(rest)
	if n <= 0 || ckptStep > maxManifestValue {
		return m, fmt.Errorf("durable: bad checkpoint step field")
	}
	if len(rest[n:]) != 0 {
		return m, fmt.Errorf("durable: %d trailing manifest bytes", len(rest[n:]))
	}
	if !hasCkpt && ckptStep != 0 {
		return m, fmt.Errorf("durable: checkpoint step %d without a checkpoint", ckptStep)
	}
	m = Manifest{SegmentSteps: int(segSteps), HasCheckpoint: hasCkpt, CheckpointStep: int(ckptStep)}
	// Canonicality: an accepted manifest must re-encode bit-exactly, so
	// non-minimal varints are rejected by construction.
	enc, err := EncodeManifest(m)
	if err != nil || !bytes.Equal(enc, data) {
		return m, fmt.Errorf("durable: non-canonical manifest encoding")
	}
	return m, nil
}
