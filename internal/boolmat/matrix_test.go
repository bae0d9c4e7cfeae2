package boolmat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if !m.IsEmpty() {
		t.Fatalf("new matrix should be empty")
	}
	m.Set(1, 2, true)
	if !m.Get(1, 2) {
		t.Fatalf("Get after Set = false")
	}
	if m.CountTrue() != 1 {
		t.Fatalf("CountTrue = %d, want 1", m.CountTrue())
	}
	if m.IsFull() {
		t.Fatalf("matrix with one true entry should not be full")
	}
}

func TestIdentityAndFull(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if id.Get(i, j) != (i == j) {
				t.Fatalf("Identity(3)[%d][%d] = %v", i, j, id.Get(i, j))
			}
		}
	}
	f := Full(2, 2)
	if !f.IsFull() {
		t.Fatalf("Full(2,2) not full")
	}
	if !Full(0, 0).IsFull() {
		t.Fatalf("0x0 matrix should be trivially full")
	}
}

func TestFromRowsAndEqual(t *testing.T) {
	m := FromRows([][]bool{{true, false}, {false, true}})
	if !m.Equal(Identity(2)) {
		t.Fatalf("FromRows != Identity(2): %v", m)
	}
	if m.Equal(Identity(3)) {
		t.Fatalf("matrices of different dimensions reported equal")
	}
	if !FromRows(nil).Equal(New(0, 0)) {
		t.Fatalf("FromRows(nil) should be the 0x0 matrix")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on ragged rows")
		}
	}()
	FromRows([][]bool{{true}, {true, false}})
}

func TestMul(t *testing.T) {
	// a: path 0->1, b: path 1->2; product: 0 reaches 2.
	a := New(3, 3)
	a.Set(0, 1, true)
	b := New(3, 3)
	b.Set(1, 2, true)
	p := a.Mul(b)
	if !p.Get(0, 2) {
		t.Fatalf("product should relate 0 to 2")
	}
	if p.CountTrue() != 1 {
		t.Fatalf("product CountTrue = %d, want 1", p.CountTrue())
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulIdentityIsNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 6)
	if !Identity(4).Mul(m).Equal(m) {
		t.Fatalf("I*M != M")
	}
	if !m.Mul(Identity(6)).Equal(m) {
		t.Fatalf("M*I != M")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]bool{{true, false, true}, {false, false, true}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims = %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.Get(i, j) != tr.Get(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatalf("double transpose is not the original")
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var dst *Matrix
	// Reuse one destination across shrinking and growing shapes, including
	// widths that straddle the 64-bit word boundary.
	for _, dims := range [][2]int{{5, 70}, {70, 5}, {1, 64}, {64, 1}, {3, 3}, {0, 4}} {
		m := randomMatrix(rng, dims[0], dims[1])
		dst = TransposeInto(dst, m)
		if !dst.Equal(m.Transpose()) {
			t.Fatalf("TransposeInto mismatch on %dx%d", dims[0], dims[1])
		}
	}
}

func TestTransposeIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("TransposeInto(m, m) did not panic")
		}
	}()
	m := Identity(3)
	TransposeInto(m, m)
}

func TestIdentityInto(t *testing.T) {
	var dst *Matrix
	for _, n := range []int{5, 65, 1, 0, 64} {
		dst = IdentityInto(dst, n)
		if !dst.Equal(Identity(n)) {
			t.Fatalf("IdentityInto(%d) is not the identity", n)
		}
	}
}

func TestOr(t *testing.T) {
	a := FromRows([][]bool{{true, false}})
	b := FromRows([][]bool{{false, true}})
	if !a.Or(b).IsFull() {
		t.Fatalf("Or of complementary matrices should be full")
	}
	if !a.Or(a).Equal(a) {
		t.Fatalf("Or should be idempotent")
	}
}

func TestPow(t *testing.T) {
	// Cycle 0 -> 1 -> 2 -> 0.
	c := New(3, 3)
	c.Set(0, 1, true)
	c.Set(1, 2, true)
	c.Set(2, 0, true)
	if !c.Pow(0).Equal(Identity(3)) {
		t.Fatalf("Pow(0) != identity")
	}
	if !c.Pow(3).Equal(Identity(3)) {
		t.Fatalf("cycle^3 != identity")
	}
	if !c.Pow(4).Equal(c) {
		t.Fatalf("cycle^4 != cycle")
	}
}

func TestPowMatchesIteratedMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		m := randomMatrix(rng, n, n)
		iter := Identity(n)
		for k := 0; k <= 8; k++ {
			if !m.Pow(k).Equal(iter) {
				t.Fatalf("trial %d: Pow(%d) differs from iterated multiplication", trial, k)
			}
			iter = iter.Mul(m)
		}
	}
}

func TestProduct(t *testing.T) {
	a := FromRows([][]bool{{true, true}})
	b := Identity(2)
	c := FromRows([][]bool{{true}, {false}})
	p := Product(a, b, c)
	if p.Rows() != 1 || p.Cols() != 1 || !p.Get(0, 0) {
		t.Fatalf("Product = %v", p)
	}
	if !Product(a).Equal(a) {
		t.Fatalf("Product of a single matrix should be that matrix")
	}
}

func TestString(t *testing.T) {
	if s := Identity(2).String(); s != "[10|01]" {
		t.Fatalf("String = %q, want [10|01]", s)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := Identity(2)
	c := m.Clone()
	c.Set(0, 1, true)
	if m.Get(0, 1) {
		t.Fatalf("mutating a clone changed the original")
	}
}

func TestFindPeriodIdentity(t *testing.T) {
	pp := mustFindPeriod(t, Identity(3))
	if pp.Preperiod != 1 || pp.Period != 1 {
		t.Fatalf("identity period = (%d,%d), want (1,1)", pp.Preperiod, pp.Period)
	}
	if !pp.Power(17).Equal(Identity(3)) {
		t.Fatalf("identity power 17 != identity")
	}
}

func TestFindPeriodNilpotent(t *testing.T) {
	// Strictly upper triangular: powers eventually become the zero matrix and stay there.
	m := New(3, 3)
	m.Set(0, 1, true)
	m.Set(1, 2, true)
	pp := mustFindPeriod(t, m)
	if pp.Period != 1 {
		t.Fatalf("nilpotent matrix period = %d, want 1", pp.Period)
	}
	if !pp.Power(100).IsEmpty() {
		t.Fatalf("large power of nilpotent matrix should be zero")
	}
	if !pp.Power(1).Equal(m) {
		t.Fatalf("Power(1) != original matrix")
	}
}

func TestFindPeriodCycle(t *testing.T) {
	c := New(4, 4)
	for i := 0; i < 4; i++ {
		c.Set(i, (i+1)%4, true)
	}
	pp := mustFindPeriod(t, c)
	if pp.Period != 4 {
		t.Fatalf("4-cycle period = %d, want 4", pp.Period)
	}
	for k := 1; k <= 20; k++ {
		if !pp.Power(k).Equal(c.Pow(k)) {
			t.Fatalf("Power(%d) != Pow(%d)", k, k)
		}
	}
	if pp.SizeBits() <= 0 {
		t.Fatalf("SizeBits should be positive")
	}
}

func TestFindPeriodMatchesPowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		m := randomMatrix(r, n, n)
		pp := mustFindPeriod(t, m)
		k := 1 + int(kRaw)%64
		return pp.Power(k).Equal(m.Pow(k))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(4), 1+r.Intn(4))
		b := randomMatrix(r, a.Cols(), 1+r.Intn(4))
		c := randomMatrix(r, b.Cols(), 1+r.Intn(4))
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	// (AB)^T == B^T A^T
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 1+r.Intn(4), 1+r.Intn(4))
		b := randomMatrix(r, a.Cols(), 1+r.Intn(4))
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Intn(2) == 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// mustFindPeriod is FindPeriod with no practical cap on the power table.
func mustFindPeriod(t *testing.T, x *Matrix) *PowerPeriod {
	t.Helper()
	pp, err := FindPeriod(x, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestFindPeriodCapsPowerTable: the powers of a permutation repeat only
// after the least common multiple of its cycle lengths, here 2*3*5*7*11 =
// 2310; a cap below that table fails instead of building it, and a cap that
// fits it returns the full period.
func TestFindPeriodCapsPowerTable(t *testing.T) {
	n := 0
	p := New(28, 28)
	for _, l := range []int{2, 3, 5, 7, 11} {
		for i := 0; i < l; i++ {
			p.Set(n+i, n+(i+1)%l, true)
		}
		n += l
	}
	if _, err := FindPeriod(p, 1000*powerBytes(p)); err == nil {
		t.Fatal("FindPeriod built a 2310-power table under a 1000-power cap")
	}
	pp, err := FindPeriod(p, 2310*powerBytes(p))
	if err != nil {
		t.Fatal(err)
	}
	if pp.Preperiod != 1 || pp.Period != 2310 || pp.Bytes() != 2310*powerBytes(p) {
		t.Fatalf("period (%d,%d) in %d bytes, want (1,2310) in %d", pp.Preperiod, pp.Period, pp.Bytes(), 2310*powerBytes(p))
	}
}

// TestAppendWordsOverRoundTrip stores matrices of every shape at the word
// boundaries back to back in one word buffer and reads each back through
// one reused header.
func TestAppendWordsOverRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	var words []uint64
	var ms []*Matrix
	var at []int
	for _, rows := range []int{0, 1, 63, 64, 65} {
		for _, cols := range []int{0, 1, 63, 64, 65} {
			m := randomDense(r, rows, cols, 0.5)
			at = append(at, len(words))
			words = m.AppendWords(words)
			ms = append(ms, m)
		}
	}
	var h Matrix
	for i, m := range ms {
		if got := Over(&h, m.Rows(), m.Cols(), words[at[i]:]); got != &h || !got.Equal(m) {
			t.Fatalf("matrix %d (%dx%d) read back as %v, want %v", i, m.Rows(), m.Cols(), got, m)
		}
		if cap(h.bits) != len(h.bits) {
			t.Fatalf("matrix %d: the header reaches past its words", i)
		}
	}
}
