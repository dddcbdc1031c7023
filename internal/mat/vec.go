package mat

import (
	"fmt"
	"math"
)

// Vector helpers. Vectors are plain []float64 throughout the repository;
// these functions keep the call sites terse and panic on length mismatch,
// mirroring the Matrix conventions.

// VecSub returns a − b element-wise.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: VecSub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// VecClone returns a copy of a.
func VecClone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// VecEqualApprox reports whether a and b have equal length and every
// element pair differs by at most tol.
func VecEqualApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// VecIsFinite reports whether every element is neither NaN nor ±Inf.
func VecIsFinite(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Outer returns the outer product a·bᵀ as a len(a)×len(b) matrix.
func Outer(a, b []float64) *Matrix {
	m := New(len(a), len(b))
	for i, av := range a {
		for j, bv := range b {
			m.Set(i, j, av*bv)
		}
	}
	return m
}
