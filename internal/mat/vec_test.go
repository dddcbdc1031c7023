package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecAddSub(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if got := VecAdd(a, b); !VecEqualApprox(got, []float64{11, 22, 33}, 0) {
		t.Fatalf("VecAdd = %v", got)
	}
	if got := VecSub(b, a); !VecEqualApprox(got, []float64{9, 18, 27}, 0) {
		t.Fatalf("VecSub = %v", got)
	}
}

func TestVecAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VecAdd length mismatch did not panic")
		}
	}()
	VecAdd([]float64{1}, []float64{1, 2})
}

func TestVecScaleDotNorm(t *testing.T) {
	a := []float64{3, 4}
	if got := VecScale(2, a); !VecEqualApprox(got, []float64{6, 8}, 0) {
		t.Fatalf("VecScale = %v", got)
	}
	if got := VecDot(a, a); got != 25 {
		t.Fatalf("VecDot = %v, want 25", got)
	}
	if got := VecNorm(a); got != 5 {
		t.Fatalf("VecNorm = %v, want 5", got)
	}
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

func TestPropCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()*10 - 5
			b[i] = rng.Float64()*10 - 5
		}
		return math.Abs(VecDot(a, b)) <= VecNorm(a)*VecNorm(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()*10 - 5
			b[i] = rng.Float64()*10 - 5
		}
		return VecNorm(VecAdd(a, b)) <= VecNorm(a)+VecNorm(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
		rhs := VecDot(x, a) * VecDot(b, x)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
