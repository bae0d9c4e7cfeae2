package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestSetRowEncoding(t *testing.T) {
	ids := []int{2, 4, 7, 10, 12}
	row := EncodeItems(ids)
	if want := []byte{2, 2, 3, 3, 2}; !bytes.Equal(row, want) || cap(row) != len(want) {
		t.Fatalf("EncodeItems(%v) = %x (cap %d), want %x", ids, row, cap(row), want)
	}
	doc, err := json.Marshal(SetAnswer{Items: row})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"items":"AgIDAwI="}`; string(doc) != want {
		t.Fatalf("wire form %s, want %s", doc, want)
	}
	back, err := DecodeItems(row)
	if err != nil || !reflect.DeepEqual(back, ids) || cap(back) != len(ids) {
		t.Fatalf("DecodeItems = %v (cap %d), %v; want %v", back, cap(back), err, ids)
	}

	top := []int{1, 128, 16_511, math.MaxInt32}
	if back, err := DecodeItems(EncodeItems(top)); err != nil || !reflect.DeepEqual(back, top) {
		t.Fatalf("round trip of %v = %v, %v", top, back, err)
	}

	// No IDs is no row, and no row decodes to nil, as the engine answers an
	// empty set.
	if row := EncodeItems(nil); row != nil {
		t.Fatalf("EncodeItems(nil) = %x", row)
	}
	if ids, err := DecodeItems(nil); ids != nil || err != nil {
		t.Fatalf("DecodeItems(nil) = %v, %v", ids, err)
	}
}

func TestPairRowEncoding(t *testing.T) {
	pairs := [][2]int{{1, 3}, {1, 5}, {4, 2}, {9, 300}, {9, 301}}
	rows := EncodePairs(pairs)
	want := []PairRow{{From: 1, To: []byte{3, 2}}, {From: 4, To: []byte{2}}, {From: 9, To: []byte{0xac, 0x02, 1}}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("EncodePairs = %v, want %v", rows, want)
	}
	back, err := DecodePairs(rows)
	if err != nil || !reflect.DeepEqual(back, pairs) || cap(back) != len(pairs) {
		t.Fatalf("DecodePairs = %v (cap %d), %v; want %v", back, cap(back), err, pairs)
	}
	if rows := EncodePairs(nil); rows != nil {
		t.Fatalf("EncodePairs(nil) = %v", rows)
	}
	if pairs, err := DecodePairs(nil); pairs != nil || err != nil {
		t.Fatalf("DecodePairs(nil) = %v, %v", pairs, err)
	}
}

func TestSetRowDecodeRefuses(t *testing.T) {
	rows := map[string][]byte{
		"overlong varint":           {0x82, 0x00},
		"six-byte varint":           {0x81, 0x80, 0x80, 0x80, 0x80, 0x00},
		"zero delta":                {2, 0},
		"zero first ID":             {0},
		"ID past MaxInt32":          append(EncodeItems([]int{math.MaxInt32}), 1),
		"delta past MaxInt32":       {0x80, 0x80, 0x80, 0x80, 0x08},
		"varint cut short":          {2, 0x80},
		"varint cut short mid-row":  {2, 0x81, 0x81},
		"five continuation bytes":   {0xff, 0xff, 0xff, 0xff, 0xff},
		"overlong five-byte varint": {0x81, 0x80, 0x80, 0x80, 0x00},
	}
	for name, row := range rows {
		if ids, err := DecodeItems(row); !errors.Is(err, ErrCorruptRow) || ids != nil {
			t.Errorf("%s (%x): DecodeItems = %v, %v; want ErrCorruptRow", name, row, ids, err)
		}
		if pairs, err := DecodePairs([]PairRow{{From: 1, To: row}}); !errors.Is(err, ErrCorruptRow) || pairs != nil {
			t.Errorf("%s (%x): DecodePairs = %v, %v; want ErrCorruptRow", name, row, pairs, err)
		}
	}
	pairRows := map[string][]PairRow{
		"empty row":            {{From: 1, To: nil}},
		"zero source":          {{From: 0, To: []byte{1}}},
		"repeated source":      {{From: 3, To: []byte{1}}, {From: 3, To: []byte{2}}},
		"descending source":    {{From: 3, To: []byte{1}}, {From: 2, To: []byte{1}}},
		"source past MaxInt32": {{From: math.MaxInt32 + 1, To: []byte{1}}},
	}
	for name, rows := range pairRows {
		if pairs, err := DecodePairs(rows); !errors.Is(err, ErrCorruptRow) || pairs != nil {
			t.Errorf("%s: DecodePairs = %v, %v; want ErrCorruptRow", name, pairs, err)
		}
	}
}

// FuzzSetRowDecode: any bytes decode to an error in the taxonomy or to
// strictly ascending IDs in [1, MaxInt32] that re-encode to the same bytes,
// and decoding allocates at most a small multiple of the input's length.
func FuzzSetRowDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeItems([]int{2, 4, 7, 10, 12}))
	f.Add([]byte{0x82, 0x00})
	f.Add([]byte{2, 0})
	f.Fuzz(func(t *testing.T, row []byte) {
		ids, err := DecodeItems(row)
		if alloc := minDecodeAlloc(row); alloc > uint64(16*len(row)+1024) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(row), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptRow) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		prev := 0
		for _, id := range ids {
			if id <= prev || id > math.MaxInt32 {
				t.Fatalf("decoded IDs %v are not strictly ascending in [1, MaxInt32]", ids)
			}
			prev = id
		}
		if re := EncodeItems(ids); !bytes.Equal(re, row) {
			t.Fatalf("accepted row is not bit-exact under re-encode:\nin:  %x\nout: %x", row, re)
		}
	})
}

// minDecodeAlloc returns the fewest bytes one of three DecodeItems calls
// allocated. Other goroutines of the process allocate too, which only adds
// to a reading, so the least of three is the decoder's own. The decoder
// allocates one int per varint, each at least a byte, plus an error; the
// bound above doubles that for the allocator's size classes.
func minDecodeAlloc(row []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = DecodeItems(row)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
