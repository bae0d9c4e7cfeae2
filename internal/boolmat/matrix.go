// Package boolmat implements small dense boolean matrices used as
// reachability matrices by the labeling schemes.
//
// A Matrix with r rows and c columns represents a relation between two
// ordered sets of ports: entry (i, j) is true when port i of the first set
// reaches (or is related to) port j of the second set. Matrices in this
// package are value-ish: operations return fresh matrices and never alias
// their operands' storage. Callers that sit on a hot path can opt into the
// allocation-avoiding In variants (MulInto, OrInto, Zero), which reuse a
// destination matrix's storage.
//
// Storage is packed: each row is a little-endian sequence of uint64 words,
// one bit per column, so every kernel (product, disjunction, comparison,
// population count) operates on 64 columns per machine instruction. The
// boolean product A·B in particular is computed as a row-OR of bit-rows:
// for every set bit k of row i of A, row k of B is ORed into row i of the
// result. Invariant: the bits of the last word of each row beyond the
// column count are always zero, so word-level comparisons and popcounts
// never see phantom columns.
package boolmat

import (
	"fmt"
	"math/bits"
	"strings"
)

// wordBits is the number of columns packed into one storage word.
const wordBits = 64

// Matrix is a dense boolean matrix. The zero value is an empty 0x0 matrix.
type Matrix struct {
	rows, cols int
	stride     int      // words per row: ceil(cols / 64)
	bits       []uint64 // row-major bit-rows, len == rows*stride
}

// New returns a rows x cols matrix with all entries false.
// It panics if rows or cols is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("boolmat: negative dimension %dx%d", rows, cols))
	}
	stride := (cols + wordBits - 1) / wordBits
	return &Matrix{rows: rows, cols: cols, stride: stride, bits: make([]uint64, rows*stride)}
}

// Zero reshapes dst into a rows x cols all-false matrix, reusing its storage
// when the capacity suffices, and returns it. A nil dst allocates; negative
// dimensions panic, matching New. This is
// the entry point of the In variants: repeated kernels on matrices of
// similar shape stop allocating after the first call.
func Zero(dst *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("boolmat: negative dimension %dx%d", rows, cols))
	}
	stride := (cols + wordBits - 1) / wordBits
	n := rows * stride
	if dst == nil || cap(dst.bits) < n {
		return New(rows, cols)
	}
	dst.rows, dst.cols, dst.stride = rows, cols, stride
	dst.bits = dst.bits[:n]
	clear(dst.bits)
	return dst
}

// Ones reshapes dst into a rows x cols all-true matrix, reusing its storage
// when the capacity suffices, and returns it. A nil dst allocates; negative
// dimensions panic, matching New.
func Ones(dst *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("boolmat: negative dimension %dx%d", rows, cols))
	}
	dst = reshape(dst, rows, cols)
	dst.Fill(true)
	return dst
}

// reshape is Zero without the clearing, for kernels that overwrite every
// destination word. The returned matrix's bits are garbage.
func reshape(dst *Matrix, rows, cols int) *Matrix {
	stride := (cols + wordBits - 1) / wordBits
	n := rows * stride
	if dst == nil || cap(dst.bits) < n {
		return New(rows, cols)
	}
	dst.rows, dst.cols, dst.stride = rows, cols, stride
	dst.bits = dst.bits[:n]
	return dst
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	return IdentityInto(nil, n)
}

// Full returns a rows x cols matrix with all entries true.
func Full(rows, cols int) *Matrix {
	return Ones(nil, rows, cols)
}

// FromRows builds a matrix from a slice of rows. All rows must have the same
// length (ragged input panics). An empty input yields the 0x0 matrix.
func FromRows(rows [][]bool) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("boolmat: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		for j, v := range r {
			if v {
				m.setBit(i, j)
			}
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// row returns the bit-row of row i.
func (m *Matrix) row(i int) []uint64 {
	return m.bits[i*m.stride : (i+1)*m.stride]
}

// tailMask is the mask of valid bits in the last word of each row. It is
// meaningless when stride == 0 (zero columns).
func (m *Matrix) tailMask() uint64 {
	if r := m.cols % wordBits; r != 0 {
		return 1<<r - 1
	}
	return ^uint64(0)
}

func (m *Matrix) setBit(i, j int) {
	m.bits[i*m.stride+j/wordBits] |= 1 << (uint(j) % wordBits)
}

// Get reports the entry at (i, j). It panics on out-of-range indices.
func (m *Matrix) Get(i, j int) bool {
	m.check(i, j)
	return m.bits[i*m.stride+j/wordBits]>>(uint(j)%wordBits)&1 != 0
}

// Set assigns the entry at (i, j). It panics on out-of-range indices.
func (m *Matrix) Set(i, j int, v bool) {
	m.check(i, j)
	if v {
		m.bits[i*m.stride+j/wordBits] |= 1 << (uint(j) % wordBits)
	} else {
		m.bits[i*m.stride+j/wordBits] &^= 1 << (uint(j) % wordBits)
	}
}

// check panics when (i, j) lies outside the matrix: the shared bounds guard
// of the exported accessors, mirroring the slice bounds check it replaces.
func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("boolmat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Fill sets every entry to v.
func (m *Matrix) Fill(v bool) {
	if !v {
		clear(m.bits)
		return
	}
	for i := range m.bits {
		m.bits[i] = ^uint64(0)
	}
	if m.stride > 0 {
		mask := m.tailMask()
		for i := 0; i < m.rows; i++ {
			m.bits[(i+1)*m.stride-1] &= mask
		}
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, stride: m.stride, bits: make([]uint64, len(m.bits))}
	copy(c.bits, m.bits)
	return c
}

// AppendWords appends m's packed rows, ceil(cols/64) words per row, to buf
// and returns the extended buffer: the layout Over reads back.
func (m *Matrix) AppendWords(buf []uint64) []uint64 { return append(buf, m.bits...) }

// Over points dst at the rows x cols matrix AppendWords stored at the start
// of words, and returns dst. dst then aliases words: it may be read, but
// never passed as the destination of an In kernel, which would write into
// words. rows and cols must not be negative; a words too short panics.
func Over(dst *Matrix, rows, cols int, words []uint64) *Matrix {
	stride := (cols + wordBits - 1) / wordBits
	n := rows * stride
	dst.rows, dst.cols, dst.stride = rows, cols, stride
	dst.bits = words[:n:n]
	return dst
}

// Equal reports whether m and o have identical dimensions and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.bits {
		if w != o.bits[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether every entry is false.
func (m *Matrix) IsEmpty() bool {
	for _, w := range m.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsFull reports whether every entry is true. The 0x0 matrix is full.
func (m *Matrix) IsFull() bool {
	if m.rows == 0 || m.cols == 0 {
		return true
	}
	mask := m.tailMask()
	for i := 0; i < m.rows; i++ {
		row := m.row(i)
		for w, word := range row {
			want := ^uint64(0)
			if w == len(row)-1 {
				want = mask
			}
			if word != want {
				return false
			}
		}
	}
	return true
}

// Any reports whether at least one entry is true.
func (m *Matrix) Any() bool { return !m.IsEmpty() }

// CountTrue returns the number of true entries.
func (m *Matrix) CountTrue() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	return TransposeInto(nil, m)
}

// TransposeInto computes the transpose of m into dst, reusing dst's storage
// when possible (a nil dst allocates), and returns the destination. dst must
// not be m; aliasing the operand panics.
func TransposeInto(dst, m *Matrix) *Matrix {
	if dst == m && m != nil {
		panic("boolmat: TransposeInto destination aliases the operand")
	}
	dst = Zero(dst, m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for w, word := range m.row(i) {
			for word != 0 {
				j := w*wordBits + bits.TrailingZeros64(word)
				word &= word - 1
				dst.setBit(j, i)
			}
		}
	}
	return dst
}

// IdentityInto reshapes dst into the n x n identity matrix, reusing its
// storage when possible (a nil dst allocates), and returns the destination.
func IdentityInto(dst *Matrix, n int) *Matrix {
	dst = Zero(dst, n, n)
	for i := 0; i < n; i++ {
		dst.setBit(i, i)
	}
	return dst
}

// Mul returns the boolean matrix product m x o (logical OR of ANDs).
// It panics when the inner dimensions disagree.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return MulInto(nil, m, o)
}

// MulInto computes the boolean product a x b into dst, reusing dst's storage
// when possible (a nil dst allocates), and returns the destination. dst must
// not be a or b. It panics when the inner dimensions disagree.
//
// The kernel is word-parallel: for every set bit k of bit-row i of a, the
// whole bit-row k of b is ORed into bit-row i of the result, covering 64
// columns of b per instruction.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("boolmat: cannot multiply %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst == a || dst == b {
		panic("boolmat: MulInto destination aliases an operand")
	}
	dst = Zero(dst, a.rows, b.cols)
	if dst.stride == 0 {
		return dst
	}
	for i := 0; i < a.rows; i++ {
		drow := dst.row(i)
		for w, word := range a.row(i) {
			base := w * wordBits
			for word != 0 {
				k := base + bits.TrailingZeros64(word)
				word &= word - 1
				brow := b.bits[k*b.stride : (k+1)*b.stride]
				for x, bw := range brow {
					drow[x] |= bw
				}
			}
		}
	}
	return dst
}

// RowInto copies row i of m into dst as a 1 x m.Cols() row vector, reusing
// dst's storage when possible (a nil dst allocates), and returns the
// destination. It panics when i is out of range or dst is m.
func RowInto(dst, m *Matrix, i int) *Matrix {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("boolmat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	if dst == m {
		panic("boolmat: RowInto destination aliases the operand")
	}
	dst = reshape(dst, 1, m.cols)
	copy(dst.bits, m.row(i))
	return dst
}

// ColInto copies column j of m into dst as a 1 x m.Rows() row vector,
// reusing dst's storage when possible (a nil dst allocates), and returns the
// destination. It panics when j is out of range or dst is m.
func ColInto(dst, m *Matrix, j int) *Matrix {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("boolmat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	if dst == m {
		panic("boolmat: ColInto destination aliases the operand")
	}
	dst = Zero(dst, 1, m.rows)
	w, shift := j/wordBits, uint(j)%wordBits
	for i := 0; i < m.rows; i++ {
		dst.bits[i/wordBits] |= (m.bits[i*m.stride+w] >> shift & 1) << (uint(i) % wordBits)
	}
	return dst
}

// MulVecInto computes the matrix-vector product m·v into dst, reusing dst's
// storage when possible (a nil dst allocates), and returns the destination.
// The vector v is held as a 1 x m.Cols() row and so is the result, 1 x
// m.Rows(): bit i is set when row i of m meets v. A row vector times a matrix
// needs no kernel of its own: it is MulInto with a 1-row operand. It panics
// when v is not 1 x m.Cols() or dst aliases an operand.
func MulVecInto(dst, m, v *Matrix) *Matrix {
	if v.rows != 1 || v.cols != m.cols {
		panic(fmt.Sprintf("boolmat: cannot multiply %dx%d by a %dx%d vector", m.rows, m.cols, v.rows, v.cols))
	}
	if dst == m || dst == v {
		panic("boolmat: MulVecInto destination aliases an operand")
	}
	dst = Zero(dst, 1, m.rows)
	for i := 0; i < m.rows; i++ {
		for x, vw := range v.bits {
			if m.bits[i*m.stride+x]&vw != 0 {
				dst.bits[i/wordBits] |= 1 << (uint(i) % wordBits)
				break
			}
		}
	}
	return dst
}

// Or returns the element-wise disjunction of m and o.
// It panics when dimensions differ.
func (m *Matrix) Or(o *Matrix) *Matrix {
	return OrInto(nil, m, o)
}

// OrInto computes the element-wise disjunction of a and b into dst, reusing
// dst's storage when possible (a nil dst allocates), and returns the
// destination. dst may alias a or b. It panics when dimensions differ.
func OrInto(dst, a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("boolmat: cannot OR %dx%d with %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dst = reshape(dst, a.rows, a.cols)
	for i := range dst.bits {
		dst.bits[i] = a.bits[i] | b.bits[i]
	}
	return dst
}

// AndInto computes the element-wise conjunction of a and b into dst, reusing
// dst's storage when possible (a nil dst allocates), and returns the
// destination. dst may alias a or b. It panics when dimensions differ.
func AndInto(dst, a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("boolmat: cannot AND %dx%d with %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	dst = reshape(dst, a.rows, a.cols)
	for i := range dst.bits {
		dst.bits[i] = a.bits[i] & b.bits[i]
	}
	return dst
}

// EachTrueInRow calls fn(j) for every true entry (i, j) of row i, in
// ascending column order — the word-parallel iterator the set-query layer
// uses to materialize a bitset row into an item-ID list. It panics when the
// row index is out of range.
func (m *Matrix) EachTrueInRow(i int, fn func(j int)) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("boolmat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	for w, word := range m.row(i) {
		base := w * wordBits
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Pow returns m raised to the k-th power under boolean matrix multiplication,
// computed by repeated squaring in O(log k) multiplications with two reused
// scratch matrices. Pow(0) is the identity. It panics if m is not square or
// k is negative.
func (m *Matrix) Pow(k int) *Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("boolmat: Pow on non-square %dx%d matrix", m.rows, m.cols))
	}
	if k < 0 {
		panic("boolmat: negative exponent")
	}
	result := Identity(m.rows)
	base := m.Clone()
	var tr, tb *Matrix // scratch: ping-pong partners of result and base
	for k > 0 {
		if k&1 == 1 {
			tr = MulInto(tr, result, base)
			result, tr = tr, result
		}
		k >>= 1
		if k == 0 {
			break
		}
		tb = MulInto(tb, base, base)
		base, tb = tb, base
	}
	return result
}

// Product multiplies the given matrices left to right, ping-ponging between
// two scratch buffers so a chain of any length performs at most two
// allocations. With no arguments it panics because the dimension of the
// identity is unknown; with a single argument it returns a clone of that
// matrix.
func Product(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("boolmat: Product of no matrices")
	}
	if len(ms) == 1 {
		return ms[0].Clone()
	}
	var bufs [2]*Matrix
	cur := ms[0]
	for idx, m := range ms[1:] {
		i := idx & 1
		bufs[i] = MulInto(bufs[i], cur, m)
		cur = bufs[i]
	}
	return cur
}

// String renders the matrix as rows of 0/1 characters, e.g. "[10|01]".
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	b.WriteByte(']')
	return b.String()
}

// PowerPeriod describes the eventually-periodic structure of the sequence
// X^1, X^2, X^3, ... of boolean powers of a square matrix X: there exist
// Preperiod >= 1 and Period >= 1 such that X^(a+Period) == X^a for all
// a >= Preperiod. Powers caches X^1 .. X^(Preperiod+Period-1) so any power
// can be resolved in constant time.
type PowerPeriod struct {
	Preperiod int
	Period    int
	Powers    []*Matrix // Powers[a-1] == X^a for a in [1, Preperiod+Period-1]
}

// FindPeriod computes the eventually-periodic structure of the powers of x.
// Because an n x n boolean matrix has at most 2^(n^2) distinct values, the
// sequence of powers must repeat; in the workflow setting n is the (constant)
// maximum module degree, so this is the "a < b <= 2^(c^2)+1 with X^a = X^b"
// observation of Section 4.4.3 of the paper.
//
// The first repeat is found through a map keyed by a hash of each power's
// words, with Equal confirming every hash match, so a period P costs O(P)
// products and hashes. The period of an n x n matrix can still grow
// exponentially in n (a permutation's period is the least common multiple of
// its cycle lengths), so the power table is capped: FindPeriod fails once
// the table's Bytes would exceed maxBytes.
// It panics if x is not square.
func FindPeriod(x *Matrix, maxBytes int) (*PowerPeriod, error) {
	if x.Rows() != x.Cols() {
		panic(fmt.Sprintf("boolmat: FindPeriod on non-square %dx%d matrix", x.Rows(), x.Cols()))
	}
	pp := &PowerPeriod{}
	latest := map[uint64]int{} // hash -> 1 + index of the latest power with it
	var earlier []int          // earlier[a]: index of the previous power with a's hash, or -1
	cur := x.Clone()
	var tmp *Matrix // scratch: ping-pong partner of cur
	used := 0
	for {
		h := cur.hash()
		for a := latest[h] - 1; a >= 0; a = earlier[a] {
			if pp.Powers[a].Equal(cur) {
				// Powers[len] would equal Powers[a]:
				// X^(len+1) == X^(a+1)  =>  preperiod a+1, period len-a.
				pp.Preperiod, pp.Period = a+1, len(pp.Powers)-a
				return pp, nil
			}
		}
		if used += powerBytes(cur); used > maxBytes {
			return nil, fmt.Errorf("boolmat: the powers of a %dx%d matrix have not repeated within %d powers; the table would pass %d bytes", x.Rows(), x.Cols(), len(pp.Powers), maxBytes)
		}
		earlier = append(earlier, latest[h]-1)
		latest[h] = len(pp.Powers) + 1
		pp.Powers = append(pp.Powers, cur.Clone())
		tmp = MulInto(tmp, cur, x)
		cur, tmp = tmp, cur
	}
}

// hash mixes the matrix's words (FNV-1a over words); equal matrices of equal
// shape hash alike.
func (m *Matrix) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, w := range m.bits {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// powerBytes is what one entry of FindPeriod's table costs: the matrix's
// words and header plus the table's own bookkeeping (the slice slots and the
// hash-map entry), rounded up for allocator size classes and slice growth.
func powerBytes(m *Matrix) int { return 10*len(m.bits) + 256 }

// Power returns X^k for k >= 1 using the cached periodic structure; k < 1
// panics.
func (pp *PowerPeriod) Power(k int) *Matrix {
	if k < 1 {
		panic("boolmat: PowerPeriod.Power requires k >= 1")
	}
	if k <= len(pp.Powers) {
		return pp.Powers[k-1]
	}
	// Reduce k into [Preperiod, Preperiod+Period-1].
	k = pp.Preperiod + (k-pp.Preperiod)%pp.Period
	return pp.Powers[k-1]
}

// Bytes returns the memory the power table holds, as FindPeriod counts it
// against its cap.
func (pp *PowerPeriod) Bytes() int {
	total := 0
	for _, p := range pp.Powers {
		total += powerBytes(p)
	}
	return total
}

// SizeBits returns the number of bits needed to materialize the cached powers
// (one bit per matrix entry), used by the view-label size accounting.
func (pp *PowerPeriod) SizeBits() int {
	total := 0
	for _, p := range pp.Powers {
		total += p.Rows() * p.Cols()
	}
	return total
}
