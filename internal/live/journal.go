package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/faults"
)

// The step journal is the durable form of a live session: the sequence of
// (instance, production) requests that, replayed against a fresh run of the
// same specification, reconstructs the session at any prefix. It is a flat
// binary stream:
//
//	offset  size  field
//	0       8     magic "FVLJRNL\x01" (the last byte is the format version)
//	8       —     records, each: uvarint instance, uvarint production
//
// Reading is an untrusted-input surface in the PR 3 style — a journal comes
// from disk or the network, so the decoder rejects, never panics:
//
//   - varints must be canonically (minimally) encoded, so every accepted
//     stream re-encodes bit-exactly (FuzzJournalReplay asserts this);
//   - instance and production values are bounded by maxJournalValue; real
//     values are small ints, the bound only stops corrupted bytes from
//     overflowing int on 32-bit targets;
//   - a record must be complete: a stream that ends mid-record is rejected;
//   - the record count is bounded by the input length by construction (each
//     record is at least two bytes), so decoding allocates O(len(input)).
//
// Whether the steps apply to the specification is not the codec's business:
// Resume replays them through run.Apply, which validates instance existence,
// production arity and expansion state step by step.

// journalMagic identifies a step journal; the final byte is the version.
var journalMagic = [8]byte{'F', 'V', 'L', 'J', 'R', 'N', 'L', 0x01}

// maxJournalValue bounds decoded instance and production values: they must
// fit an int32, far above any real derivation while keeping arithmetic on
// the decoded values safe everywhere an int is 32 bits.
const maxJournalValue = 1<<31 - 1

// JournalWriter appends step records to a stream. The header is written by
// NewJournalWriter, so even an empty journal is a valid artifact.
type JournalWriter struct {
	w io.Writer
}

// NewJournalWriter writes the journal header and returns a writer ready to
// append records.
func NewJournalWriter(w io.Writer) (*JournalWriter, error) {
	if w == nil {
		return nil, fmt.Errorf("live: nil journal writer")
	}
	if _, err := w.Write(journalMagic[:]); err != nil {
		return nil, err
	}
	return &JournalWriter{w: w}, nil
}

// ResumeJournalWriter returns a writer that appends records to w without
// writing a header — for continuing a journal whose header (and possibly a
// prefix of records) is already durable, such as a recovered segment file of
// a durable session.
func ResumeJournalWriter(w io.Writer) (*JournalWriter, error) {
	if w == nil {
		return nil, fmt.Errorf("live: nil journal writer")
	}
	return &JournalWriter{w: w}, nil
}

// Append writes one step record.
func (jw *JournalWriter) Append(req StepRequest) error {
	buf, err := appendRecord(nil, req)
	if err != nil {
		return err
	}
	_, err = jw.w.Write(buf)
	return err
}

// appendRecord encodes one record onto buf. Negative or oversized fields are
// rejected so the write path can only produce streams the read path accepts.
func appendRecord(buf []byte, req StepRequest) ([]byte, error) {
	if req.Instance < 0 || req.Instance > maxJournalValue {
		return nil, fmt.Errorf("live: journal instance %d out of range", req.Instance)
	}
	if req.Prod < 0 || req.Prod > maxJournalValue {
		return nil, fmt.Errorf("live: journal production %d out of range", req.Prod)
	}
	buf = binary.AppendUvarint(buf, uint64(req.Instance))
	buf = binary.AppendUvarint(buf, uint64(req.Prod))
	return buf, nil
}

// EncodeJournal renders a step sequence in the journal format. It is the
// one-shot form of NewJournalWriter + Append and fails only on out-of-range
// field values.
func EncodeJournal(steps []StepRequest) ([]byte, error) {
	buf := append([]byte(nil), journalMagic[:]...)
	var err error
	for _, req := range steps {
		if buf, err = appendRecord(buf, req); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeJournal parses a journal from untrusted bytes. Any structural
// problem — bad magic, a non-canonical or truncated varint, an out-of-range
// value — fails with an error wrapping ErrCorruptJournal; the decoder never
// panics. Every accepted stream re-encodes to exactly the input bytes. It is
// ReadJournal over the bytes, with the step slice sized up front: each
// record is at least two bytes, so the allocation is O(len(data)).
func DecodeJournal(data []byte) ([]StepRequest, error) {
	return readJournal(bytes.NewReader(data), max(len(data)-len(journalMagic), 0)/2)
}

// ReadJournal decodes a journal from a reader incrementally (see
// DecodeJournal for the accepted format): the stream is consumed through a
// buffered record decoder, so resuming a large journal never holds the whole
// file in memory at once. It is strict — a stream that ends mid-record fails
// (with an error wrapping both ErrTornJournal and ErrCorruptJournal); use
// JournalReader directly to handle torn tails.
func ReadJournal(r io.Reader) ([]StepRequest, error) {
	return readJournal(r, 0)
}

func readJournal(r io.Reader, capacity int) ([]StepRequest, error) {
	jr, err := NewJournalReader(r)
	if err != nil {
		return nil, err
	}
	steps := make([]StepRequest, 0, capacity)
	for {
		req, err := jr.Next()
		if err == io.EOF {
			return steps, nil
		}
		if err != nil {
			return nil, err
		}
		steps = append(steps, req)
	}
}

// JournalReader decodes a step journal one record at a time; it is the
// journal's only decoder (DecodeJournal and ReadJournal loop over it). It
// classifies where the stream ends:
//
//   - a stream ending at a record boundary is complete (Next returns io.EOF);
//   - a stream ending mid-record — or mid-header — is torn, the signature of
//     a crash mid-append: the error wraps both faults.ErrTornJournal and
//     faults.ErrCorruptJournal, so callers that do not care about the
//     distinction keep classifying it as corruption;
//   - every other structural problem (bad magic, non-canonical varint,
//     out-of-range value) wraps faults.ErrCorruptJournal only.
//
// Offset reports how many bytes of the stream the complete records span, so
// a recovery path that chooses to forgive a torn tail knows exactly where to
// truncate.
type JournalReader struct {
	br    *bufio.Reader
	off   int64 // bytes consumed by the header and complete records
	steps int   // complete records decoded
	err   error // sticky decode failure
}

// NewJournalReader reads and validates the journal header and returns a
// reader positioned at the first record. A stream shorter than the header is
// torn; a full-length header with the wrong bytes is corrupt.
func NewJournalReader(r io.Reader) (*JournalReader, error) {
	if r == nil {
		return nil, fmt.Errorf("live: nil journal reader")
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	n, err := io.ReadFull(br, magic[:])
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("live: journal header cut short at %d of %d bytes: %w (%w)",
			n, len(journalMagic), faults.ErrTornJournal, faults.ErrCorruptJournal)
	case err != nil:
		return nil, fmt.Errorf("live: reading journal header: %w", err)
	case magic != journalMagic:
		return nil, fmt.Errorf("live: bad journal magic: %w", faults.ErrCorruptJournal)
	}
	return &JournalReader{br: br, off: int64(len(journalMagic))}, nil
}

// Next decodes one record. It returns io.EOF when the stream ends at a
// record boundary; any other error is sticky.
func (jr *JournalReader) Next() (StepRequest, error) {
	if jr.err != nil {
		return StepRequest{}, jr.err
	}
	instance, n1, err := jr.readValue(true)
	if err == io.EOF {
		return StepRequest{}, io.EOF
	}
	if err != nil {
		jr.err = fmt.Errorf("live: journal record %d instance at offset %d: %w", jr.steps+1, jr.off, err)
		return StepRequest{}, jr.err
	}
	prod, n2, err := jr.readValue(false)
	if err != nil {
		jr.err = fmt.Errorf("live: journal record %d production at offset %d: %w", jr.steps+1, jr.off+int64(n1), err)
		return StepRequest{}, jr.err
	}
	jr.off += int64(n1 + n2)
	jr.steps++
	return StepRequest{Instance: instance, Prod: prod}, nil
}

// Steps returns the number of complete records decoded so far.
func (jr *JournalReader) Steps() int { return jr.steps }

// Offset returns the stream offset just past the last complete record (or
// past the header, before the first record) — the truncation point that
// discards a torn tail and nothing else.
func (jr *JournalReader) Offset() int64 { return jr.off }

// readValue decodes one bounded canonical uvarint from the buffered stream.
// first marks the start of a record: running out of bytes there is a clean
// io.EOF, anywhere else it is a torn record. It decodes from the bytes
// already buffered and waits for more only while the varint continues, so a
// record is returned as soon as its last byte arrives, even on a stream that
// stays open.
func (jr *JournalReader) readValue(first bool) (int, int, error) {
	want := min(max(jr.br.Buffered(), 1), binary.MaxVarintLen64)
	for {
		// Peek returns fewer than want bytes only when the stream ends (or
		// errors) first.
		buf, peekErr := jr.br.Peek(want)
		if len(buf) == 0 {
			if peekErr == nil || peekErr == io.EOF {
				if first {
					return 0, 0, io.EOF
				}
				return 0, 0, fmt.Errorf("live: record cut short: %w (%w)", faults.ErrTornJournal, faults.ErrCorruptJournal)
			}
			return 0, 0, peekErr
		}
		v, n, err := readCanonicalUvarint(buf)
		if err != nil && n == 0 && peekErr == nil {
			// The varint continues past the bytes at hand: wait for the next
			// one, or take all that has arrived since.
			want = min(max(want+1, jr.br.Buffered()), binary.MaxVarintLen64)
			continue
		}
		if err != nil {
			if n == 0 {
				// The varint continues past the end of the stream, so the
				// record is torn — unless the shortfall was a read error,
				// which is reported as itself.
				if peekErr != io.EOF {
					return 0, 0, peekErr
				}
				return 0, 0, fmt.Errorf("live: record cut short: %w (%w)", faults.ErrTornJournal, faults.ErrCorruptJournal)
			}
			return 0, 0, err
		}
		if v > maxJournalValue {
			return 0, 0, fmt.Errorf("live: value %d exceeds the journal bound: %w", v, faults.ErrCorruptJournal)
		}
		if _, err := jr.br.Discard(n); err != nil {
			return 0, 0, err
		}
		return int(v), n, nil
	}
}

// readCanonicalUvarint decodes a uvarint and rejects non-minimal encodings:
// a multi-byte encoding whose last byte is zero carries redundant high bits,
// and accepting it would break the bit-exact re-encode guarantee. On failure
// the returned count is zero exactly when the input ran out mid-varint, so
// streaming callers can tell truncation from malformed bytes.
func readCanonicalUvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	switch {
	case n == 0 && len(b) >= binary.MaxVarintLen64:
		// Ten continuation bytes: the varint cannot end in range, however
		// the stream continues.
		return 0, binary.MaxVarintLen64, fmt.Errorf("live: varint overflows 64 bits: %w", faults.ErrCorruptJournal)
	case n == 0:
		return 0, 0, fmt.Errorf("live: truncated varint: %w", faults.ErrCorruptJournal)
	case n < 0:
		return 0, -n, fmt.Errorf("live: varint overflows 64 bits: %w", faults.ErrCorruptJournal)
	case n > 1 && b[n-1] == 0:
		return 0, n, fmt.Errorf("live: non-canonical varint: %w", faults.ErrCorruptJournal)
	}
	return v, n, nil
}
