package boolmat

import "testing"

// Edge shapes: degenerate dimensions, widths that are not multiples of 64,
// and the FindPeriod corner cases. These guard the packed representation's
// tail-bit invariant: bits beyond the column count must never leak into
// Equal, IsFull, CountTrue or Transpose.

func TestZeroDimensionShapes(t *testing.T) {
	for _, tc := range []struct{ r, c int }{{0, 0}, {0, 5}, {5, 0}, {0, 64}, {0, 65}} {
		m := New(tc.r, tc.c)
		if !m.IsEmpty() {
			t.Fatalf("New(%d,%d) not empty", tc.r, tc.c)
		}
		if !m.IsFull() {
			t.Fatalf("New(%d,%d): a matrix with no entries is vacuously full", tc.r, tc.c)
		}
		if m.CountTrue() != 0 {
			t.Fatalf("New(%d,%d).CountTrue != 0", tc.r, tc.c)
		}
		tr := m.Transpose()
		if tr.Rows() != tc.c || tr.Cols() != tc.r {
			t.Fatalf("Transpose of %dx%d has dims %dx%d", tc.r, tc.c, tr.Rows(), tr.Cols())
		}
		if !m.Equal(m.Clone()) {
			t.Fatalf("New(%d,%d) not equal to its clone", tc.r, tc.c)
		}
	}

	// Products through a zero inner dimension collapse to the empty relation.
	p := New(3, 0).Mul(New(0, 4))
	if p.Rows() != 3 || p.Cols() != 4 || !p.IsEmpty() {
		t.Fatalf("3x0 * 0x4 = %v, want empty 3x4", p)
	}
	q := New(0, 3).Mul(New(3, 0))
	if q.Rows() != 0 || q.Cols() != 0 {
		t.Fatalf("0x3 * 3x0 has dims %dx%d, want 0x0", q.Rows(), q.Cols())
	}
	if !Full(0, 7).Equal(New(0, 7)) {
		t.Fatalf("Full and New disagree on a 0-row matrix")
	}
}

func TestNonWordAlignedWidths(t *testing.T) {
	for _, cols := range []int{1, 7, 63, 64, 65, 127, 128, 129, 191} {
		f := Full(3, cols)
		checkTail(t, "Full", f)
		if !f.IsFull() {
			t.Fatalf("Full(3,%d) not IsFull", cols)
		}
		if got := f.CountTrue(); got != 3*cols {
			t.Fatalf("Full(3,%d).CountTrue = %d, want %d", cols, got, 3*cols)
		}
		tr := f.Transpose()
		checkTail(t, "Transpose", tr)
		if !tr.IsFull() || tr.CountTrue() != 3*cols {
			t.Fatalf("Transpose of Full(3,%d) lost entries", cols)
		}
		if !tr.Transpose().Equal(f) {
			t.Fatalf("double transpose of Full(3,%d) differs", cols)
		}

		// Clearing one entry in the last word must be visible to every kernel.
		g := f.Clone()
		g.Set(1, cols-1, false)
		if g.IsFull() {
			t.Fatalf("width %d: IsFull true after clearing last-column bit", cols)
		}
		if g.Equal(f) {
			t.Fatalf("width %d: Equal ignored a last-column difference", cols)
		}
		if got := g.CountTrue(); got != 3*cols-1 {
			t.Fatalf("width %d: CountTrue = %d, want %d", cols, got, 3*cols-1)
		}

		// Or and Mul of full operands must stay exactly full: any stray high
		// bit produced by the word kernels would be caught by the naive view.
		if !f.Or(g).IsFull() {
			t.Fatalf("width %d: Full OR almost-full not full", cols)
		}
		prod := Full(2, cols).Mul(Full(cols, 5))
		checkTail(t, "Mul(full)", prod)
		if !prod.Equal(Full(2, 5)) {
			t.Fatalf("width %d: full x full != full", cols)
		}
	}
}

func TestFillMaintainsTailInvariant(t *testing.T) {
	m := New(4, 67)
	m.Fill(true)
	checkTail(t, "Fill", m)
	if !m.IsFull() {
		t.Fatalf("Fill(true) not full")
	}
	m.Fill(false)
	if !m.IsEmpty() {
		t.Fatalf("Fill(false) not empty")
	}
}

func TestZeroReusesStorage(t *testing.T) {
	m := Full(8, 70)
	reused := Zero(m, 4, 33)
	if reused != m {
		t.Fatalf("Zero did not reuse a large enough matrix")
	}
	if reused.Rows() != 4 || reused.Cols() != 33 || !reused.IsEmpty() {
		t.Fatalf("Zero(4,33) = %dx%d empty=%v", reused.Rows(), reused.Cols(), reused.IsEmpty())
	}
	grown := Zero(m, 100, 100)
	if grown == m {
		t.Fatalf("Zero reused storage that is too small")
	}
	if Zero(nil, 2, 2).CountTrue() != 0 {
		t.Fatalf("Zero(nil) not empty")
	}
}

func TestMulIntoRejectsAliasedDestination(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic when MulInto destination aliases an operand")
		}
	}()
	m := Identity(3)
	MulInto(m, m, Identity(3))
}

func TestFindPeriodOneByOne(t *testing.T) {
	// 1x1 zero matrix: the lone vertex has no self-loop ("empty cycle"), so
	// every power is the zero matrix.
	pp := mustFindPeriod(t, New(1, 1))
	if pp.Preperiod != 1 || pp.Period != 1 {
		t.Fatalf("1x1 zero matrix period = (%d,%d), want (1,1)", pp.Preperiod, pp.Period)
	}
	if !pp.Power(1000).IsEmpty() {
		t.Fatalf("power of 1x1 zero matrix should stay empty")
	}

	// 1x1 one matrix: a self-loop, every power is full.
	pp = mustFindPeriod(t, Full(1, 1))
	if pp.Preperiod != 1 || pp.Period != 1 {
		t.Fatalf("1x1 full matrix period = (%d,%d), want (1,1)", pp.Preperiod, pp.Period)
	}
	if !pp.Power(7).IsFull() {
		t.Fatalf("power of 1x1 full matrix should stay full")
	}
}

func TestFindPeriodEmptyMatrix(t *testing.T) {
	// The 0x0 matrix is its own square; the period machinery must terminate.
	pp := mustFindPeriod(t, New(0, 0))
	if pp.Preperiod != 1 || pp.Period != 1 {
		t.Fatalf("0x0 matrix period = (%d,%d), want (1,1)", pp.Preperiod, pp.Period)
	}
	if got := pp.Power(42); got.Rows() != 0 || got.Cols() != 0 {
		t.Fatalf("power of 0x0 matrix has dims %dx%d", got.Rows(), got.Cols())
	}

	// An empty (all-false) square matrix of non-trivial width: nilpotent in
	// one step.
	pp = mustFindPeriod(t, New(65, 65))
	if !pp.Power(3).IsEmpty() {
		t.Fatalf("powers of the empty 65x65 matrix should be empty")
	}
}
