package boolmat

import (
	"math"
	"math/rand"
	"testing"
)

// randomDim maps a raw byte to a dimension in [0, 140], biased so that the
// interesting boundaries (0, 1, 63, 64, 65, 127, 128) come up often.
func randomDim(r *rand.Rand) int {
	boundaries := []int{0, 1, 2, 63, 64, 65, 127, 128, 129}
	if r.Intn(2) == 0 {
		return boundaries[r.Intn(len(boundaries))]
	}
	return r.Intn(141)
}

func randomDense(r *rand.Rand, rows, cols int, density float64) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// checkTail verifies the representation invariant: bits beyond the column
// count in the last word of each row are zero.
func checkTail(t *testing.T, label string, m *Matrix) {
	t.Helper()
	if m.stride == 0 {
		return
	}
	mask := m.tailMask()
	for i := 0; i < m.rows; i++ {
		if last := m.bits[(i+1)*m.stride-1]; last&^mask != 0 {
			t.Fatalf("%s: stray bits %#x beyond column %d in row %d of %dx%d matrix",
				label, last&^mask, m.cols, i, m.rows, m.cols)
		}
	}
}

// checkAgainstNaive exercises every kernel on one (a, b, c) triple with
// compatible shapes and compares each result with the naive reference.
// scratch persists across calls, so successive trials exercise the
// shape-changing storage reuse of Zero/reshape (stride shrink then grow with
// stale words in the backing array), the same pattern Product, Pow and the
// core decode chains and row vectors rely on.
func checkAgainstNaive(t *testing.T, r *rand.Rand, rows, inner, cols int, density float64, scratch **Matrix) {
	t.Helper()
	a := randomDense(r, rows, inner, density)
	b := randomDense(r, inner, cols, density)
	c := randomDense(r, rows, inner, density)
	na, nb, nc := naiveFrom(a), naiveFrom(b), naiveFrom(c)

	prod := a.Mul(b)
	checkTail(t, "Mul", prod)
	if !prod.Equal(na.mul(nb).toPacked()) {
		t.Fatalf("Mul mismatch on %dx%d x %dx%d:\n a=%v\n b=%v\n got=%v", rows, inner, inner, cols, a, b, prod)
	}
	*scratch = MulInto(*scratch, a, b)
	*scratch = MulInto(*scratch, a, b) // same-shape reuse path
	if !(*scratch).Equal(prod) {
		t.Fatalf("MulInto disagrees with Mul on %dx%d x %dx%d", rows, inner, inner, cols)
	}
	checkTail(t, "MulInto(reused)", *scratch)

	or := a.Or(c)
	checkTail(t, "Or", or)
	if !or.Equal(na.or(nc).toPacked()) {
		t.Fatalf("Or mismatch on %dx%d", rows, inner)
	}
	inPlace := a.Clone()
	if !OrInto(inPlace, inPlace, c).Equal(or) {
		t.Fatalf("aliased OrInto disagrees with Or on %dx%d", rows, inner)
	}

	tr := a.Transpose()
	checkTail(t, "Transpose", tr)
	if !tr.Equal(na.transpose().toPacked()) {
		t.Fatalf("Transpose mismatch on %dx%d", rows, inner)
	}

	// The vector kernels of the row decoder, each written into the stale
	// scratch: every row and column of a, and a times a random vector.
	for i := 0; i < rows; i++ {
		*scratch = RowInto(*scratch, a, i)
		checkTail(t, "RowInto", *scratch)
		if want := na.row(i).toPacked(); !(*scratch).Equal(want) {
			t.Fatalf("RowInto(%dx%d, %d) = %v, want %v", rows, inner, i, *scratch, want)
		}
	}
	for j := 0; j < inner; j++ {
		*scratch = ColInto(*scratch, a, j)
		checkTail(t, "ColInto", *scratch)
		if want := na.col(j).toPacked(); !(*scratch).Equal(want) {
			t.Fatalf("ColInto(%dx%d, %d) = %v, want %v", rows, inner, j, *scratch, want)
		}
	}
	v := randomDense(r, 1, inner, density)
	*scratch = MulVecInto(*scratch, a, v)
	checkTail(t, "MulVecInto", *scratch)
	if want := na.mulVec(naiveFrom(v)).toPacked(); !(*scratch).Equal(want) {
		t.Fatalf("MulVecInto(%dx%d) = %v, want %v", rows, inner, *scratch, want)
	}

	if got, want := a.Equal(c), na.equal(nc); got != want {
		t.Fatalf("Equal = %v, naive = %v on %dx%d", got, want, rows, inner)
	}
	if got, want := a.IsEmpty(), na.isEmpty(); got != want {
		t.Fatalf("IsEmpty = %v, naive = %v on %dx%d", got, want, rows, inner)
	}
	if got, want := a.IsFull(), na.isFull(); got != want {
		t.Fatalf("IsFull = %v, naive = %v on %dx%d", got, want, rows, inner)
	}
	if got, want := a.CountTrue(), na.countTrue(); got != want {
		t.Fatalf("CountTrue = %d, naive = %d on %dx%d", got, want, rows, inner)
	}
}

func TestKernelsMatchNaiveRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	densities := []float64{0, 0.05, 0.5, 0.95, 1}
	var scratch *Matrix // persists across trials: reused at 300 different shapes
	for trial := 0; trial < 300; trial++ {
		rows, inner, cols := randomDim(r), randomDim(r), randomDim(r)
		checkAgainstNaive(t, r, rows, inner, cols, densities[trial%len(densities)], &scratch)
	}
}

func TestPowMatchesNaiveIteration(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(70)
		m := randomDense(r, n, n, 0.15)
		nm := naiveFrom(m)
		iter := naiveFrom(Identity(n))
		for k := 0; k <= 6; k++ {
			p := m.Pow(k)
			checkTail(t, "Pow", p)
			if !p.Equal(iter.toPacked()) {
				t.Fatalf("trial %d: Pow(%d) differs from iterated naive product at n=%d", trial, k, n)
			}
			iter = iter.mul(nm)
		}
	}
}

// FuzzKernelsMatchNaive is the differential fuzz target: it derives matrix
// shapes and contents from the fuzzed bytes (dims reduced mod 133 so widths
// straddle one and two words and are rarely multiples of 64) and requires
// every packed kernel to agree with the naive []bool reference.
func FuzzKernelsMatchNaive(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(7), uint8(128))
	f.Add(int64(2), uint8(0), uint8(64), uint8(65), uint8(0))
	f.Add(int64(3), uint8(63), uint8(64), uint8(0), uint8(255))
	f.Add(int64(4), uint8(127), uint8(128), uint8(129), uint8(20))
	f.Add(int64(5), uint8(1), uint8(1), uint8(1), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, rRaw, iRaw, cRaw, dRaw uint8) {
		rows, inner, cols := int(rRaw)%133, int(iRaw)%133, int(cRaw)%133
		density := float64(dRaw) / 255
		r := rand.New(rand.NewSource(seed))
		// A pre-dirtied scratch larger than most fuzzed shapes forces the
		// stale-storage reuse path on the very first kernel call.
		scratch := Full(50, 50)
		checkAgainstNaive(t, r, rows, inner, cols, density, &scratch)
	})
}

// TestFindPeriodMatchesQuadraticReference: the hashed search must find the
// same first repeat as the all-pairs loop it replaced, over random square
// matrices of every density (sparse ones have long preperiods, permutation-
// like ones long periods).
func TestFindPeriodMatchesQuadraticReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(20)
		if trial%10 == 0 {
			n = 60 + r.Intn(10) // rows past one word
		}
		x := randomDense(r, n, n, []float64{0.02, 0.05, 0.1, 0.3, 0.7}[trial%5])
		if trial%7 == 0 {
			x = New(n, n) // a random permutation
			for i, j := range r.Perm(n) {
				x.Set(i, j, true)
			}
		}
		got, err := FindPeriod(x, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		want := findPeriodQuadratic(x)
		if got.Preperiod != want.Preperiod || got.Period != want.Period || len(got.Powers) != len(want.Powers) {
			t.Fatalf("trial %d (%dx%d): got (%d,%d) with %d powers, reference (%d,%d) with %d",
				trial, n, n, got.Preperiod, got.Period, len(got.Powers), want.Preperiod, want.Period, len(want.Powers))
		}
		for a := range want.Powers {
			if !got.Powers[a].Equal(want.Powers[a]) {
				t.Fatalf("trial %d: power %d differs from the reference", trial, a+1)
			}
		}
	}
}
