package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Set answers cross the wire as rows. A row is a set of item IDs, strictly
// ascending in [1, MaxInt32], written as the uvarint deltas between
// consecutive IDs (the first from 0). Dense answers cost about one byte per
// item, and encoding/json carries a row as one base64 string. A pair set is
// one row of targets per source item (PairRow), sources ascending.
//
// Every ID set has exactly one row: the decoder refuses an overlong varint,
// a zero delta, an ID past MaxInt32 and a varint cut short by the end of the
// row, so every row it accepts re-encodes to the same bytes.

// ErrCorruptRow marks a set row the decoder refuses.
var ErrCorruptRow = errors.New("wire: corrupt set row")

// maxRowVarint is the longest varint a row holds: a delta is at most
// MaxInt32, which takes 31 bits, five 7-bit groups.
const maxRowVarint = 5

// PairRow is the row of a pair set's pairs (From, to), one per target.
type PairRow struct {
	From int    `json:"from"`
	To   []byte `json:"to"`
}

// EncodeItems returns the row of ids, which must be strictly ascending in
// [1, MaxInt32], in one allocation of its exact size; nil for no IDs.
func EncodeItems(ids []int) []byte {
	if len(ids) == 0 {
		return nil
	}
	n, prev := 0, 0
	for _, id := range ids {
		n += uvarintLen(uint64(id - prev))
		prev = id
	}
	row := make([]byte, 0, n)
	prev = 0
	for _, id := range ids {
		row = binary.AppendUvarint(row, uint64(id-prev))
		prev = id
	}
	return row
}

// EncodePairs returns the rows of pairs, which must be sorted by source and
// then target, each in [1, MaxInt32], and free of duplicates. Every row
// shares one buffer of the rows' exact total size; nil for no pairs.
func EncodePairs(pairs [][2]int) []PairRow {
	if len(pairs) == 0 {
		return nil
	}
	n, rows, from, prev := 0, 0, 0, 0
	for _, p := range pairs {
		if p[0] != from {
			from, prev = p[0], 0
			rows++
		}
		n += uvarintLen(uint64(p[1] - prev))
		prev = p[1]
	}
	buf := make([]byte, 0, n)
	out := make([]PairRow, 0, rows)
	for i := 0; i < len(pairs); {
		start, from, prev := len(buf), pairs[i][0], 0
		for ; i < len(pairs) && pairs[i][0] == from; i++ {
			buf = binary.AppendUvarint(buf, uint64(pairs[i][1]-prev))
			prev = pairs[i][1]
		}
		out = append(out, PairRow{From: from, To: buf[start:len(buf):len(buf)]})
	}
	return out
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// DecodeItems decodes a row into its IDs, in one allocation of their exact
// number; nil for an empty row. A malformed row fails with an error wrapping
// ErrCorruptRow.
func DecodeItems(row []byte) ([]int, error) {
	n, err := rowLen(row)
	if err != nil || n == 0 {
		return nil, err
	}
	ids := make([]int, 0, n)
	err = decodeRow(row, func(id int) { ids = append(ids, id) })
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// DecodePairs decodes pair rows into (from, to) pairs sorted by from and
// then to, in one allocation of their exact number; nil for no rows. Sources
// must be strictly ascending in [1, MaxInt32] and no row may be empty.
func DecodePairs(rows []PairRow) ([][2]int, error) {
	n, from := 0, 0
	for _, r := range rows {
		if r.From <= from || r.From > math.MaxInt32 {
			return nil, fmt.Errorf("wire: pair source %d after %d is not ascending in [1, %d]: %w", r.From, from, math.MaxInt32, ErrCorruptRow)
		}
		from = r.From
		k, err := rowLen(r.To)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			return nil, fmt.Errorf("wire: pair source %d has an empty row: %w", r.From, ErrCorruptRow)
		}
		n += k
	}
	if n == 0 {
		return nil, nil
	}
	pairs := make([][2]int, 0, n)
	for _, r := range rows {
		if err := decodeRow(r.To, func(to int) { pairs = append(pairs, [2]int{r.From, to}) }); err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// rowLen returns the number of varints in a row: the bytes that end one.
// It refuses a row whose last varint runs past its end.
func rowLen(row []byte) (int, error) {
	if len(row) > 0 && row[len(row)-1] >= 0x80 {
		return 0, fmt.Errorf("wire: set row ends inside a varint: %w", ErrCorruptRow)
	}
	n := 0
	for _, b := range row {
		if b < 0x80 {
			n++
		}
	}
	return n, nil
}

// decodeRow passes every ID of the row to emit, in order.
func decodeRow(row []byte, emit func(id int)) error {
	prev := 0
	for pos := 0; pos < len(row); {
		var d, k int
		for shift := 0; ; shift += 7 {
			if k == maxRowVarint {
				return fmt.Errorf("wire: set row varint at byte %d is longer than %d bytes: %w", pos, maxRowVarint, ErrCorruptRow)
			}
			if pos+k == len(row) {
				return fmt.Errorf("wire: set row ends inside a varint: %w", ErrCorruptRow)
			}
			b := row[pos+k]
			k++
			d |= int(b&0x7f) << shift
			if b < 0x80 {
				if b == 0 && k > 1 {
					return fmt.Errorf("wire: overlong varint at byte %d of a set row: %w", pos, ErrCorruptRow)
				}
				break
			}
		}
		switch {
		case d == 0:
			return fmt.Errorf("wire: zero delta at byte %d of a set row: %w", pos, ErrCorruptRow)
		case d > math.MaxInt32-prev:
			return fmt.Errorf("wire: set row ID at byte %d is past %d: %w", pos, math.MaxInt32, ErrCorruptRow)
		}
		prev += d
		emit(prev)
		pos += k
	}
	return nil
}
