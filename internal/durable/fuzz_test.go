package durable_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/durable"
	"repro/internal/faults"
)

// FuzzManifestDecode asserts the manifest decoder's contract on arbitrary
// bytes: it never panics, every rejection wraps ErrCorruptManifest, and
// every accepted input re-encodes bit-exactly (so the accepted language is
// exactly the encoder's image). The seeds cover every field of the format,
// with and without a checkpoint, and a version-1 manifest.
func FuzzManifestDecode(f *testing.F) {
	spec := sha256.Sum256([]byte("spec"))
	for _, m := range []durable.Manifest{
		{SegmentSteps: 1},
		{SegmentSteps: 1024, Spec: spec},
		{SegmentSteps: 4, Spec: spec, HasCheckpoint: true, CheckpointStep: 17, CheckpointBytes: 44, CheckpointCRC: 0x1234abcd},
		{SegmentSteps: 1 << 20, HasCheckpoint: true, CheckpointStep: 1 << 29, CheckpointBytes: 1 << 30, CheckpointCRC: 1 << 31},
	} {
		data, err := durable.EncodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("FVLMANI\x02"))
	f.Add([]byte{})
	// A version-1 manifest, which must be refused.
	v1 := []byte{4, 1, 17}
	v1Frame := binary.LittleEndian.AppendUint32([]byte("FVLMANI\x01"), crc32.ChecksumIEEE(v1))
	v1Frame = binary.LittleEndian.AppendUint64(v1Frame, uint64(len(v1)))
	f.Add(append(v1Frame, v1...))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := durable.DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, faults.ErrCorruptManifest) {
				t.Fatalf("rejection not classified as ErrCorruptManifest: %v", err)
			}
			return
		}
		enc, err := durable.EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest %+v does not re-encode: %v", m, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted manifest is not bit-exact: %x -> %x", data, enc)
		}
	})
}
