package kalman

import (
	"math"
	"math/rand"
	"testing"

	"kalmanstream/internal/mat"
)

func TestNewAdaptiveDefaults(t *testing.T) {
	f := MustFilter(RandomWalk(1, 1), []float64{0}, InitialCovariance(1, 1))
	a, err := NewAdaptive(f, AdaptiveConfig{AdaptR: true, AdaptQ: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.window != 64 || a.adaptEvery != 16 {
		t.Fatalf("defaults: window=%d adaptEvery=%d", a.window, a.adaptEvery)
	}
	if a.QScale() != 1 {
		t.Fatalf("initial QScale = %v", a.QScale())
	}
}

func TestNewAdaptiveRejectsBadBounds(t *testing.T) {
	f := MustFilter(RandomWalk(1, 1), []float64{0}, InitialCovariance(1, 1))
	if _, err := NewAdaptive(f, AdaptiveConfig{MinQScale: 10, MaxQScale: 1}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

// runAdaptive drives an adaptive filter over a synthetic random walk with
// the given true q/r, returning the estimated R and final Q scale.
func runAdaptive(t *testing.T, a *Adaptive, trueQ, trueR float64, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth := 0.0
	for i := 0; i < n; i++ {
		truth += rng.NormFloat64() * math.Sqrt(trueQ)
		z := truth + rng.NormFloat64()*math.Sqrt(trueR)
		a.Filter().PredictN(1)
		if err := a.Update([]float64{z}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdaptiveREstimatesMeasurementNoise(t *testing.T) {
	// Filter starts with R wrong by 100×; adaptation should bring the
	// effective R close to the true value.
	trueQ, trueR := 0.01, 4.0
	f := MustFilter(RandomWalk(trueQ, trueR/100), []float64{0}, InitialCovariance(1, 1))
	a, err := NewAdaptive(f, AdaptiveConfig{Window: 128, AdaptR: true})
	if err != nil {
		t.Fatal(err)
	}
	runAdaptive(t, a, trueQ, trueR, 8000, 11)
	estR := a.Filter().Model().R.At(0, 0)
	if estR < trueR/3 || estR > trueR*3 {
		t.Fatalf("estimated R = %v, true R = %v (started at %v)", estR, trueR, trueR/100)
	}
}

func TestAdaptiveQScalesUpWhenUnderModeled(t *testing.T) {
	// Filter's Q is 1000× too small: NIS will blow past the target and
	// the Q scale must rise above 1.
	trueQ, trueR := 1.0, 0.5
	f := MustFilter(RandomWalk(trueQ/1000, trueR), []float64{0}, InitialCovariance(1, 1))
	a, err := NewAdaptive(f, AdaptiveConfig{Window: 64, AdaptQ: true})
	if err != nil {
		t.Fatal(err)
	}
	runAdaptive(t, a, trueQ, trueR, 4000, 3)
	if a.QScale() <= 4 {
		t.Fatalf("QScale = %v, expected substantial scale-up", a.QScale())
	}
}

func TestAdaptiveQScalesDownWhenOverModeled(t *testing.T) {
	trueQ, trueR := 0.001, 0.5
	f := MustFilter(RandomWalk(trueQ*1000, trueR), []float64{0}, InitialCovariance(1, 1))
	a, err := NewAdaptive(f, AdaptiveConfig{Window: 64, AdaptQ: true})
	if err != nil {
		t.Fatal(err)
	}
	runAdaptive(t, a, trueQ, trueR, 4000, 4)
	if a.QScale() >= 0.25 {
		t.Fatalf("QScale = %v, expected substantial scale-down", a.QScale())
	}
}

func TestAdaptiveQScaleRespectsBounds(t *testing.T) {
	trueQ, trueR := 10.0, 0.1
	f := MustFilter(RandomWalk(trueQ/1e6, trueR), []float64{0}, InitialCovariance(1, 1))
	a, err := NewAdaptive(f, AdaptiveConfig{Window: 32, AdaptQ: true, MinQScale: 0.5, MaxQScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	runAdaptive(t, a, trueQ, trueR, 3000, 9)
	if a.QScale() > 8 || a.QScale() < 0.5 {
		t.Fatalf("QScale = %v escaped bounds [0.5, 8]", a.QScale())
	}
	if a.QScale() != 8 {
		t.Fatalf("QScale = %v, want pinned at max 8", a.QScale())
	}
}

func TestAdaptiveImprovesTrackingUnderMisspecifiedNoise(t *testing.T) {
	// Head-to-head: same misspecified starting filter, adaptation on vs
	// off, same stream. The adaptive filter must achieve lower RMSE.
	trueQ, trueR := 0.5, 2.0
	mkFilter := func() *Filter {
		return MustFilter(RandomWalk(trueQ/500, trueR*50), []float64{0}, InitialCovariance(1, 1))
	}
	static := mkFilter()
	adaptiveInner := mkFilter()
	a, err := NewAdaptive(adaptiveInner, AdaptiveConfig{Window: 64, AdaptR: true, AdaptQ: true})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(77))
	truth := 0.0
	var sseStatic, sseAdaptive float64
	n := 10000
	for i := 0; i < n; i++ {
		truth += rng.NormFloat64() * math.Sqrt(trueQ)
		z := truth + rng.NormFloat64()*math.Sqrt(trueR)
		static.PredictN(1)
		a.Filter().PredictN(1)
		if err := static.Update([]float64{z}); err != nil {
			t.Fatal(err)
		}
		if err := a.Update([]float64{z}); err != nil {
			t.Fatal(err)
		}
		if i > n/2 { // measure after burn-in
			es := observation(static)[0] - truth
			ea := observation(a.Filter())[0] - truth
			sseStatic += es * es
			sseAdaptive += ea * ea
		}
	}
	if sseAdaptive >= sseStatic {
		t.Fatalf("adaptive SSE %v not better than static %v", sseAdaptive, sseStatic)
	}
}

func TestAdaptiveReplicaLockstep(t *testing.T) {
	// Determinism of adaptation: two adaptive replicas fed identical
	// observations stay bit-identical, including their noise estimates.
	mk := func() *Adaptive {
		f := MustFilter(ConstantVelocity(1, 0.05, 1), []float64{0, 0}, InitialCovariance(2, 1))
		a, err := NewAdaptive(f, AdaptiveConfig{Window: 32, AdaptR: true, AdaptQ: true})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 500; i++ {
		a.Filter().PredictN(1)
		b.Filter().PredictN(1)
		z := []float64{rng.NormFloat64() * 3}
		if err := a.Update(z); err != nil {
			t.Fatal(err)
		}
		if err := b.Update(z); err != nil {
			t.Fatal(err)
		}
		if !mat.VecEqualApprox(a.Filter().State(), b.Filter().State(), 0) {
			t.Fatalf("replicas diverged at step %d", i)
		}
		if a.QScale() != b.QScale() {
			t.Fatalf("QScale diverged at step %d", i)
		}
	}
}

func TestFloorDiagonal(t *testing.T) {
	m := mat.FromSlice(2, 2, []float64{-1, 0.5, 0.5, 2})
	floorDiagonal(m, 0.1)
	if m.At(0, 0) != 0.1 {
		t.Fatalf("diagonal not floored: %v", m.At(0, 0))
	}
	if m.At(0, 1) != 0 || m.At(1, 0) != 0 {
		t.Fatalf("off-diagonals of floored row not zeroed: %v", m)
	}
	if m.At(1, 1) != 2 {
		t.Fatalf("healthy diagonal disturbed: %v", m.At(1, 1))
	}
}
