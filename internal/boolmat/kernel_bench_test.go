package boolmat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the packed kernels, each paired with the naive []bool
// reference so the word-parallel speedup is visible in one -bench run:
//
//	go test -bench 'Mul|Closure' -benchmem ./internal/boolmat
func benchPair(size int) (*Matrix, *Matrix) {
	r := rand.New(rand.NewSource(int64(size)))
	return randomDense(r, size, size, 0.3), randomDense(r, size, size, 0.3)
}

func BenchmarkMulPacked(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		a, c := benchPair(size)
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Mul(c)
			}
		})
	}
}

func BenchmarkMulNaive(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		a, c := benchPair(size)
		na, nc := naiveFrom(a), naiveFrom(c)
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = na.mul(nc)
			}
		})
	}
}

func BenchmarkMulInto(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		a, c := benchPair(size)
		var dst *Matrix
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = MulInto(dst, a, c)
			}
		})
	}
}

// BenchmarkMulVec prices one matrix-vector product against the matrix
// product it replaces in a set scan: the full product of two square matrices
// when only one column of it is read.
//
//	go test -run '^$' -bench 'BenchmarkMulVec' -benchmem ./internal/boolmat
func BenchmarkMulVec(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		m, o := benchPair(size)
		v := ColInto(nil, o, 0)
		b.Run(fmt.Sprintf("vec/%dx%d", size, size), func(b *testing.B) {
			var dst *Matrix
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = MulVecInto(dst, m, v)
			}
		})
		b.Run(fmt.Sprintf("matrix/%dx%d", size, size), func(b *testing.B) {
			var dst *Matrix
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = MulInto(dst, m, o)
			}
		})
	}
}

func BenchmarkOrPacked(b *testing.B) {
	a, c := benchPair(256)
	var dst *Matrix
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = OrInto(dst, a, c)
	}
}

func BenchmarkTransposePacked(b *testing.B) {
	a, _ := benchPair(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Transpose()
	}
}

func BenchmarkEqualPacked(b *testing.B) {
	a, _ := benchPair(256)
	c := a.Clone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !a.Equal(c) {
			b.Fatal("unexpectedly unequal")
		}
	}
}

func BenchmarkPowPacked(b *testing.B) {
	a, _ := benchPair(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Pow(1 << 20)
	}
}
