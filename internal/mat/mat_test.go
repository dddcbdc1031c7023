package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("got %d×%d, want 2×3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromSlice(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, src)
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	// Must copy, not alias.
	src[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromSlice aliased caller slice")
	}
}

func TestFromSlicePanicsOnWrongLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	i3 := Identity(3)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if i3.At(r, c) != want {
				t.Fatalf("Identity(3)[%d,%d] = %v", r, c, i3.At(r, c))
			}
		}
	}
}

func TestDiag(t *testing.T) {
	d := Diag(2, 5, -1)
	if d.Rows() != 3 || d.At(1, 1) != 5 || d.At(0, 1) != 0 {
		t.Fatalf("Diag wrong: %v", d)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	sum := Add(a, b)
	if !EqualApprox(sum, FromSlice(2, 2, []float64{11, 22, 33, 44}), 0) {
		t.Fatalf("Add wrong: %v", sum)
	}
	diff := Sub(b, a)
	if !EqualApprox(diff, FromSlice(2, 2, []float64{9, 18, 27, 36}), 0) {
		t.Fatalf("Sub wrong: %v", diff)
	}
	sc := Scale(2, a)
	if !EqualApprox(sc, FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale wrong: %v", sc)
	}
}

func TestAddToAliasing(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	AddTo(a, a, a) // a = a + a, aliasing allowed for element-wise ops
	if !EqualApprox(a, FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatalf("aliased AddTo wrong: %v", a)
	}
}

func TestMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !EqualApprox(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromSlice(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 10})
	if !EqualApprox(Mul(a, Identity(3)), a, 0) {
		t.Fatal("A·I != A")
	}
	if !EqualApprox(Mul(Identity(3), a), a, 0) {
		t.Fatal("I·A != A")
	}
}

func TestMulToAliasPanics(t *testing.T) {
	a := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulTo with aliased dst did not panic")
		}
	}()
	MulTo(a, a, Identity(2))
}

func TestMul3MatchesSequentialMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 2, 5)
	b := randomMatrix(rng, 5, 3)
	c := randomMatrix(rng, 3, 4)
	got := Mul3(a, b, c)
	want := Mul(Mul(a, b), c)
	if !EqualApprox(got, want, 1e-9) {
		t.Fatalf("Mul3 = %v, want %v", got, want)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := Transpose(a)
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %v", at)
	}
}

func TestTransposeInPlaceSquare(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	TransposeTo(a, a)
	if !EqualApprox(a, FromSlice(2, 2, []float64{1, 3, 2, 4}), 0) {
		t.Fatalf("in-place transpose wrong: %v", a)
	}
}

func TestMulVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
}

func TestInverse2x2(t *testing.T) {
	a := FromSlice(2, 2, []float64{4, 7, 2, 6})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromSlice(2, 2, []float64{0.6, -0.7, -0.2, 0.4})
	if !EqualApprox(inv, want, 1e-12) {
		t.Fatalf("Inverse = %v, want %v", inv, want)
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 4})
	if _, err := Inverse(a); err != ErrSingular {
		t.Fatalf("Inverse of singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestInverseRequiresPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := FromSlice(2, 2, []float64{0, 1, 1, 0})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualApprox(inv, a, 1e-12) {
		t.Fatalf("Inverse of permutation = %v, want itself", inv)
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Matrix
		want float64
	}{
		{Identity(4), 1},
		{FromSlice(2, 2, []float64{1, 2, 3, 4}), -2},
		{FromSlice(2, 2, []float64{1, 2, 2, 4}), 0},
		{FromSlice(3, 3, []float64{2, 0, 0, 0, 3, 0, 0, 0, 4}), 24},
	}
	for i, c := range cases {
		if got := Det(c.m); math.Abs(got-c.want) > 1e-10 {
			t.Errorf("case %d: Det = %v, want %v", i, got, c.want)
		}
	}
}

func TestTrace(t *testing.T) {
	if got := Trace(FromSlice(2, 2, []float64{1, 9, 9, 5})); got != 6 {
		t.Fatalf("Trace = %v, want 6", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 4, 3})
	Symmetrize(a)
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %v", a)
	}
}

func TestQuadraticForm(t *testing.T) {
	a := Diag(2, 3)
	if got := QuadraticForm(a, []float64{1, 2}); got != 14 {
		t.Fatalf("QuadraticForm = %v, want 14", got)
	}
}

func TestMaxAbsAndIsFinite(t *testing.T) {
	a := FromSlice(2, 2, []float64{-5, 1, 2, 3})
	if MaxAbs(a) != 5 {
		t.Fatalf("MaxAbs = %v, want 5", MaxAbs(a))
	}
	if !VecIsFinite(a.Raw()) {
		t.Fatal("VecIsFinite(Raw) = false for finite matrix")
	}
	a.Set(0, 0, math.NaN())
	if VecIsFinite(a.Raw()) {
		t.Fatal("VecIsFinite(Raw) = true for NaN matrix")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestCopyFrom(t *testing.T) {
	a := Identity(2)
	b := New(2, 2)
	b.CopyFrom(a)
	if !EqualApprox(a, b, 0) {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestZero(t *testing.T) {
	a := Identity(3)
	a.Zero()
	if MaxAbs(a) != 0 {
		t.Fatal("Zero left nonzero elements")
	}
}

func TestString(t *testing.T) {
	s := FromSlice(2, 2, []float64{1, 2, 3, 4}).String()
	if s != "[1 2]\n[3 4]" {
		t.Fatalf("String = %q", s)
	}
}

// --- property-based tests -------------------------------------------------

// randomMatrix returns an r×c matrix with entries in [-5, 5).
func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.Float64()*10-5)
		}
	}
	return m
}

// randomSPD returns a random symmetric positive-definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	spd := Mul(a, Transpose(a))
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // strengthen the diagonal
	}
	return spd
}

func TestPropInverseTimesSelfIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomSPD(rng, n) // SPD ⇒ invertible
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return EqualApprox(Mul(a, inv), Identity(n), 1e-8) &&
			EqualApprox(Mul(inv, a), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		return EqualApprox(Transpose(Mul(a, b)), Mul(Transpose(b), Transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDetOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		da, db, dab := Det(a), Det(b), Det(Mul(a, b))
		scale := math.Max(1, math.Abs(da*db))
		return math.Abs(dab-da*db)/scale < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(4), 1+rng.Intn(4)
		a := randomMatrix(rng, r, c)
		b := randomMatrix(rng, r, c)
		return EqualApprox(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropQuadraticFormSPDPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		nonzero := false
		for i := range x {
			x[i] = rng.Float64()*10 - 5
			if x[i] != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		return QuadraticForm(a, x) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
