package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/faults"
)

// The MANIFEST is the commit record of a session directory: a tiny
// checksummed file naming the segment capacity, the identity of the
// specification the session runs, and the latest durable checkpoint with the
// byte length and CRC-32 of its file. It is always rewritten atomically
// (temp file + rename), so recovery either sees the old manifest or the new
// one, never a torn mix — which makes the manifest rewrite the commit point
// of a checkpoint.
//
//	offset  size  field
//	0       8     magic "FVLMANI\x02" (the last byte is the format version)
//	8       4     uint32 LE: CRC-32 (IEEE) of the payload
//	12      8     uint64 LE: payload length in bytes
//	20      —     payload: uvarint segment capacity (steps),
//	              32 bytes spec identity, byte checkpoint flag,
//	              uvarint checkpoint step, uvarint checkpoint length,
//	              uint32 LE checkpoint CRC-32
//
// Without a checkpoint the last three fields are zero. A manifest of another
// version (FVLMANI\x01 had no spec identity and no checkpoint checksum) is
// refused like any other bad magic.
var manifestMagic = [8]byte{'F', 'V', 'L', 'M', 'A', 'N', 'I', 0x02}

const manifestHeaderSize = 8 + 4 + 8

// maxManifestValue bounds decoded manifest fields; far above any real
// session while keeping downstream int arithmetic safe.
const maxManifestValue = 1 << 30

// Manifest is the decoded MANIFEST content.
type Manifest struct {
	// SegmentSteps is the fixed capacity of every journal segment, in steps.
	SegmentSteps int
	// Spec identifies the session's specification and scheme kind: the
	// SHA-256 of the kind byte (0 compact, 1 basic) and the specification's
	// JSON. Recovery under any other scheme is refused.
	Spec [sha256.Size]byte
	// HasCheckpoint reports whether the session has a durable checkpoint.
	HasCheckpoint bool
	// CheckpointStep is the epoch the latest durable checkpoint covers.
	CheckpointStep int
	// CheckpointBytes and CheckpointCRC are the length and CRC-32 (IEEE) of
	// the checkpoint file, checked before it is decoded.
	CheckpointBytes int
	CheckpointCRC   uint32
}

// specIdentity is the SHA-256 of the scheme kind byte (0 compact, 1 basic)
// followed by the specification's JSON document, whose encoding is
// deterministic.
func specIdentity(scheme *core.Scheme) ([sha256.Size]byte, error) {
	spec, err := json.Marshal(scheme.Spec)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	kind := byte(0)
	if scheme.IsBasic() {
		kind = 1
	}
	return sha256.Sum256(append([]byte{kind}, spec...)), nil
}

// EncodeManifest renders a manifest. It rejects field values the decoder
// would refuse, so the write path can only produce files the read path
// accepts.
func EncodeManifest(m Manifest) ([]byte, error) {
	if m.SegmentSteps < 1 || m.SegmentSteps > maxManifestValue {
		return nil, fmt.Errorf("durable: segment capacity %d out of range", m.SegmentSteps)
	}
	if m.CheckpointStep < 0 || m.CheckpointStep > maxManifestValue ||
		m.CheckpointBytes < 0 || m.CheckpointBytes > maxManifestValue {
		return nil, fmt.Errorf("durable: checkpoint step %d or length %d out of range", m.CheckpointStep, m.CheckpointBytes)
	}
	if !m.HasCheckpoint && (m.CheckpointStep != 0 || m.CheckpointBytes != 0 || m.CheckpointCRC != 0) {
		return nil, fmt.Errorf("durable: checkpoint fields without a checkpoint")
	}
	payload := binary.AppendUvarint(nil, uint64(m.SegmentSteps))
	payload = append(payload, m.Spec[:]...)
	if m.HasCheckpoint {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.AppendUvarint(payload, uint64(m.CheckpointStep))
	payload = binary.AppendUvarint(payload, uint64(m.CheckpointBytes))
	payload = binary.LittleEndian.AppendUint32(payload, m.CheckpointCRC)
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
	if len(rest) < len(m.Spec)+1 || rest[len(m.Spec)] > 1 {
		return m, fmt.Errorf("durable: bad spec identity or checkpoint flag")
	}
	copy(m.Spec[:], rest)
	m.SegmentSteps, m.HasCheckpoint = int(segSteps), rest[len(m.Spec)] == 1
	rest = rest[len(m.Spec)+1:]
	for _, f := range []*int{&m.CheckpointStep, &m.CheckpointBytes} {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > maxManifestValue {
			return m, fmt.Errorf("durable: bad checkpoint step or length field")
		}
		*f, rest = int(v), rest[n:]
	}
	if len(rest) != 4 {
		return m, fmt.Errorf("durable: %d bytes where the 4-byte checkpoint checksum ends the manifest", len(rest))
	}
	m.CheckpointCRC = binary.LittleEndian.Uint32(rest)
	// Canonicality: an accepted manifest must re-encode bit-exactly, so
	// non-minimal varints are rejected by construction.
	enc, err := EncodeManifest(m)
	if err != nil || !bytes.Equal(enc, data) {
		return m, fmt.Errorf("durable: non-canonical manifest encoding")
	}
	return m, nil
}
