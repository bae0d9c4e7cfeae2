package boolmat

import (
	"math/rand"
	"testing"
)

// TestVectorKernelsMatchNaive checks RowInto, ColInto, MulVecInto and the
// row vector times matrix product (MulInto with a 1-row operand) against the
// naive reference at the word boundaries, on both sides of the matrix. dst
// persists across shapes, so the reshaping reuse of Zero is exercised too.
func TestVectorKernelsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	var dst *Matrix
	for _, rows := range []int{0, 1, 63, 64, 65} {
		for _, cols := range []int{0, 1, 63, 64, 65} {
			for _, density := range []float64{0.05, 0.5, 1} {
				m := randomDense(r, rows, cols, density)
				nm := naiveFrom(m)
				for i := 0; i < rows; i++ {
					dst = RowInto(dst, m, i)
					checkTail(t, "RowInto", dst)
					if !dst.Equal(nm.row(i).toPacked()) {
						t.Fatalf("RowInto(%dx%d, %d) = %v, want %v", rows, cols, i, dst, nm.row(i).toPacked())
					}
				}
				for j := 0; j < cols; j++ {
					dst = ColInto(dst, m, j)
					checkTail(t, "ColInto", dst)
					if !dst.Equal(nm.col(j).toPacked()) {
						t.Fatalf("ColInto(%dx%d, %d) = %v, want %v", rows, cols, j, dst, nm.col(j).toPacked())
					}
				}
				for trial := 0; trial < 4; trial++ {
					v := randomDense(r, 1, cols, density)
					dst = MulVecInto(dst, m, v)
					checkTail(t, "MulVecInto", dst)
					if want := nm.mulVec(naiveFrom(v)).toPacked(); !dst.Equal(want) {
						t.Fatalf("MulVecInto(%dx%d) = %v, want %v", rows, cols, dst, want)
					}
					w := randomDense(r, 1, rows, density)
					dst = MulInto(dst, w, m)
					checkTail(t, "MulInto(row)", dst)
					if want := naiveFrom(w).mul(nm).toPacked(); !dst.Equal(want) {
						t.Fatalf("row vector times %dx%d = %v, want %v", rows, cols, dst, want)
					}
				}
			}
		}
	}
}

// TestVectorKernelsPanicAsDocumented checks the guards the doc comments of
// RowInto, ColInto and MulVecInto promise.
func TestVectorKernelsPanicAsDocumented(t *testing.T) {
	m := Identity(3)
	for name, f := range map[string]func(){
		"RowInto row -1":          func() { RowInto(nil, m, -1) },
		"RowInto row 3":           func() { RowInto(nil, m, 3) },
		"RowInto aliased":         func() { RowInto(m, m, 0) },
		"ColInto column -1":       func() { ColInto(nil, m, -1) },
		"ColInto column 3":        func() { ColInto(nil, m, 3) },
		"ColInto aliased":         func() { ColInto(m, m, 0) },
		"MulVecInto short vector": func() { MulVecInto(nil, m, New(1, 2)) },
		"MulVecInto 2-row vector": func() { MulVecInto(nil, m, New(2, 3)) },
		"MulVecInto dst is m":     func() { MulVecInto(m, m, New(1, 3)) },
		"MulVecInto dst is v":     func() { v := New(1, 3); MulVecInto(v, m, v) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
