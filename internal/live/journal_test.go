package live

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestJournalRoundTrip(t *testing.T) {
	cases := [][]StepRequest{
		nil,
		{{Instance: 0, Prod: 1}},
		{{Instance: 0, Prod: 1}, {Instance: 3, Prod: 2}, {Instance: 127, Prod: 128}},
		{{Instance: maxJournalValue, Prod: maxJournalValue}},
	}
	for _, steps := range cases {
		buf, err := EncodeJournal(steps)
		if err != nil {
			t.Fatalf("encode %v: %v", steps, err)
		}
		got, err := DecodeJournal(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", steps, err)
		}
		if len(got) != len(steps) {
			t.Fatalf("round trip %v -> %v", steps, got)
		}
		for i := range steps {
			if got[i] != steps[i] {
				t.Fatalf("round trip %v -> %v", steps, got)
			}
		}
	}
}

func TestJournalWriterMatchesEncode(t *testing.T) {
	steps := []StepRequest{{Instance: 0, Prod: 2}, {Instance: 5, Prod: 1}, {Instance: 300, Prod: 7}}
	var buf bytes.Buffer
	jw, err := NewJournalWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range steps {
		if err := jw.Append(req); err != nil {
			t.Fatal(err)
		}
	}
	oneShot, err := EncodeJournal(steps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), oneShot) {
		t.Fatalf("streaming writer bytes differ from EncodeJournal:\n%x\n%x", buf.Bytes(), oneShot)
	}
}

func TestJournalEncodeRejectsOutOfRange(t *testing.T) {
	for _, steps := range [][]StepRequest{
		{{Instance: -1, Prod: 1}},
		{{Instance: 0, Prod: -2}},
		{{Instance: maxJournalValue + 1, Prod: 1}},
	} {
		if _, err := EncodeJournal(steps); err == nil {
			t.Fatalf("EncodeJournal(%v) accepted an out-of-range value", steps)
		}
	}
}

func TestJournalDecodeRejectsCorruption(t *testing.T) {
	valid, err := EncodeJournal([]StepRequest{{Instance: 1, Prod: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short magic":       valid[:4],
		"bad magic":         append([]byte("NOTAJRNL"), valid[8:]...),
		"wrong version":     append([]byte("FVLJRNL\x02"), valid[8:]...),
		"dangling instance": append(append([]byte{}, valid...), 0x05),
		"truncated varint":  append(append([]byte{}, valid...), 0x85),
		"varint overflow": append(append([]byte{}, valid...),
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02),
		"non-canonical varint": append(append([]byte{}, valid...), 0x81, 0x00, 0x01),
		"value over bound": append(append([]byte{}, valid...),
			0x80, 0x80, 0x80, 0x80, 0x08, 0x01), // 1<<31, just past maxJournalValue
	}
	for name, data := range cases {
		if _, err := DecodeJournal(data); !errors.Is(err, faults.ErrCorruptJournal) {
			t.Errorf("%s: want ErrCorruptJournal, got %v", name, err)
		}
	}
}

// TestJournalReaderReturnsRecordsAsTheyArrive: over a stream that stays
// open, Next returns a record as soon as its last byte arrives, also when
// the record's varints arrive split across writes.
func TestJournalReaderReturnsRecordsAsTheyArrive(t *testing.T) {
	steps := []StepRequest{{Instance: 0, Prod: 1}, {Instance: 300, Prod: 2}}
	data, err := EncodeJournal(steps)
	if err != nil {
		t.Fatal(err)
	}
	first := len(journalMagic) + 2 // the header and the first record
	pr, pw := io.Pipe()
	defer pw.Close()
	// send writes chunks in order; each Write returns once the reader has
	// consumed it, and a write the reader never takes fails when the
	// deferred Close runs, which ends the goroutine.
	send := func(chunks ...[]byte) {
		go func() {
			for _, c := range chunks {
				if _, err := pw.Write(c); err != nil {
					return
				}
			}
		}()
	}
	type result struct {
		req StepRequest
		err error
	}
	next := func(jr *JournalReader) (StepRequest, error) {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			req, err := jr.Next()
			done <- result{req, err}
		}()
		select {
		case r := <-done:
			return r.req, r.err
		case <-time.After(10 * time.Second):
			t.Fatal("Next is still blocked after its record arrived")
			return StepRequest{}, nil
		}
	}

	send(data[:first])
	jr, err := NewJournalReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	if req, err := next(jr); err != nil || req != steps[0] {
		t.Fatalf("first record: %v, %v; want %v", req, err, steps[0])
	}
	// The second record's instance is a two-byte varint; deliver it a byte
	// at a time.
	send(data[first:first+1], data[first+1:])
	if req, err := next(jr); err != nil || req != steps[1] {
		t.Fatalf("second record: %v, %v; want %v", req, err, steps[1])
	}
	pw.Close()
	if _, err := next(jr); err != io.EOF {
		t.Fatalf("after the stream closed: want io.EOF, got %v", err)
	}
}

// FuzzJournalReplay is the untrusted-input guarantee of the journal decoder:
// arbitrary bytes either fail with an error (never a panic), or decode to a
// step sequence that re-encodes to exactly the input bytes — the decoder
// accepts precisely the encoder's image.
func FuzzJournalReplay(f *testing.F) {
	seed, err := EncodeJournal([]StepRequest{{Instance: 0, Prod: 1}, {Instance: 2, Prod: 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(journalMagic[:])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, journalMagic[:]...), 0x81, 0x00, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := DecodeJournal(data)
		if err != nil {
			if !errors.Is(err, faults.ErrCorruptJournal) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		re, err := EncodeJournal(steps)
		if err != nil {
			t.Fatalf("accepted journal failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted journal is not bit-exact under re-encode:\nin:  %x\nout: %x", data, re)
		}
	})
}
