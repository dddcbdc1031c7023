package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecSub(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if got := VecSub(b, a); !VecEqualApprox(got, []float64{9, 18, 27}, 0) {
		t.Fatalf("VecSub = %v", got)
	}
}

func TestVecSubLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VecSub length mismatch did not panic")
		}
	}()
	VecSub([]float64{1}, []float64{1, 2})
}

func TestVecCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	b := VecClone(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("VecClone aliased input")
	}
}

func TestVecIsFinite(t *testing.T) {
	if !VecIsFinite([]float64{1, 2}) {
		t.Fatal("finite vector reported non-finite")
	}
	if VecIsFinite([]float64{1, math.Inf(1)}) {
		t.Fatal("infinite vector reported finite")
	}
	if VecIsFinite([]float64{math.NaN()}) {
		t.Fatal("NaN vector reported finite")
	}
}

func TestOuter(t *testing.T) {
	m := Outer([]float64{1, 2}, []float64{3, 4, 5})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("Outer shape %d×%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 10 || m.At(0, 0) != 3 {
		t.Fatalf("Outer values wrong: %v", m)
	}
}

func TestVecEqualApproxShapes(t *testing.T) {
	if VecEqualApprox([]float64{1}, []float64{1, 2}, 1) {
		t.Fatal("different lengths reported equal")
	}
	if !VecEqualApprox([]float64{1.0001}, []float64{1}, 0.001) {
		t.Fatal("values within tol reported unequal")
	}
}

func TestPropOuterQuadraticConsistency(t *testing.T) {
	// xᵀ(abᵀ)x == (xᵀa)(bᵀx)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := make([]float64, n)
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()*4 - 2
			b[i] = rng.Float64()*4 - 2
			x[i] = rng.Float64()*4 - 2
		}
		lhs := QuadraticForm(Outer(a, b), x)
		rhs := MulVec(FromSlice(1, n, x), a)[0] * MulVec(FromSlice(1, n, b), x)[0]
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
