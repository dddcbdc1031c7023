package kalman

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kalmanstream/internal/mat"
)

func newRWFilter(t *testing.T, q, r float64) *Filter {
	t.Helper()
	f, err := NewFilter(RandomWalk(q, r), []float64{0}, InitialCovariance(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// observation returns H·x in a fresh slice.
func observation(f *Filter) []float64 { return f.ObservationInto(0, make([]float64, f.ObsDim())) }

// bankObservation returns the bank's blended prediction in a fresh slice.
func bankObservation(b *Bank) []float64 { return b.ObservationInto(0, make([]float64, b.ObsDim())) }

func TestNewFilterValidates(t *testing.T) {
	model := RandomWalk(1, 1)
	if _, err := NewFilter(model, []float64{0, 0}, InitialCovariance(1, 1)); err == nil {
		t.Fatal("wrong state length accepted")
	}
	if _, err := NewFilter(model, []float64{0}, InitialCovariance(2, 1)); err == nil {
		t.Fatal("wrong covariance shape accepted")
	}
	bad := &Model{Name: "bad", F: mat.Identity(2), H: mat.Identity(1), Q: mat.Identity(2), R: mat.Identity(1)}
	if _, err := NewFilter(bad, []float64{0, 0}, InitialCovariance(2, 1)); err == nil {
		t.Fatal("inconsistent model accepted")
	}
}

func TestModelValidate(t *testing.T) {
	for _, m := range []*Model{
		RandomWalk(1, 1), RandomWalkND(3, 1, 1),
		ConstantVelocity(1, 0.1, 1), ConstantAcceleration(1, 0.1, 1),
		ConstantVelocity2D(1, 0.1, 1),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	var nilModel Model
	if err := nilModel.Validate(); err == nil {
		t.Error("zero model validated")
	}
}

func TestFilterIsolatedFromCallerModel(t *testing.T) {
	model := RandomWalk(1, 1)
	f := MustFilter(model, []float64{0}, InitialCovariance(1, 1))
	model.F.Set(0, 0, 99) // mutate the caller's model
	f.PredictN(1)
	if got := f.State()[0]; got != 0 {
		t.Fatalf("filter used caller-mutated model: state = %v", got)
	}
}

func TestPredictRandomWalkKeepsStateGrowsCovariance(t *testing.T) {
	f := newRWFilter(t, 0.5, 1)
	state := f.AppendSnapshot(nil)
	state[0] = 3
	if err := f.Restore(state); err != nil {
		t.Fatal(err)
	}
	p0 := f.Covariance().At(0, 0)
	f.PredictN(1)
	if got := f.State()[0]; got != 3 {
		t.Fatalf("random-walk predict moved state to %v", got)
	}
	if got := f.Covariance().At(0, 0); math.Abs(got-(p0+0.5)) > 1e-12 {
		t.Fatalf("covariance after predict = %v, want %v", got, p0+0.5)
	}
}

func TestPredictConstantVelocityMovesPosition(t *testing.T) {
	f := MustFilter(ConstantVelocity(2, 0.01, 1), []float64{10, 3}, InitialCovariance(2, 1))
	f.PredictN(1)
	st := f.State()
	if math.Abs(st[0]-16) > 1e-12 || math.Abs(st[1]-3) > 1e-12 {
		t.Fatalf("CV predict state = %v, want [16 3]", st)
	}
}

func TestUpdateMovesTowardObservation(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	f.PredictN(1)
	if err := f.Update([]float64{10}); err != nil {
		t.Fatal(err)
	}
	got := f.State()[0]
	if got <= 0 || got >= 10 {
		t.Fatalf("posterior %v not strictly between prior 0 and observation 10", got)
	}
}

func TestUpdateReducesCovariance(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	f.PredictN(1)
	before := f.Covariance().At(0, 0)
	if err := f.Update([]float64{0}); err != nil {
		t.Fatal(err)
	}
	after := f.Covariance().At(0, 0)
	if after >= before {
		t.Fatalf("covariance did not shrink: %v -> %v", before, after)
	}
}

func TestUpdateWrongLength(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	if err := f.Update([]float64{1, 2}); err == nil {
		t.Fatal("wrong observation length accepted")
	}
}

func TestScalarKalmanMatchesClosedForm(t *testing.T) {
	// For the 1-D random walk the gain has the closed form
	// K = P⁻/(P⁻+R) with P⁻ = P+Q. Run one cycle and compare.
	q, r := 0.3, 2.0
	f := newRWFilter(t, q, r)
	pPrior := 1.0 + q
	k := pPrior / (pPrior + r)
	z := 5.0
	f.PredictN(1)
	if err := f.Update([]float64{z}); err != nil {
		t.Fatal(err)
	}
	wantX := k * z // prior mean 0
	wantP := (1 - k) * pPrior
	if got := f.State()[0]; math.Abs(got-wantX) > 1e-12 {
		t.Fatalf("posterior mean %v, want %v", got, wantX)
	}
	if got := f.Covariance().At(0, 0); math.Abs(got-wantP) > 1e-12 {
		t.Fatalf("posterior var %v, want %v", got, wantP)
	}
}

func TestInnovationAndNIS(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	y, s, err := f.Innovation([]float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 4 {
		t.Fatalf("innovation = %v, want 4", y[0])
	}
	wantS := 1.0 + 1.0 // P + R (no predict yet: P=1)
	if math.Abs(s.At(0, 0)-wantS) > 1e-12 {
		t.Fatalf("S = %v, want %v", s.At(0, 0), wantS)
	}
	nis, err := f.NIS([]float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nis-16.0/wantS) > 1e-12 {
		t.Fatalf("NIS = %v, want %v", nis, 16.0/wantS)
	}
}

func TestLogLikelihoodPrefersCloserObservation(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	near, err := f.LogLikelihood([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	far, err := f.LogLikelihood([]float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if near <= far {
		t.Fatalf("loglik near=%v <= far=%v", near, far)
	}
}

func TestCloneIndependentAndIdentical(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	f.PredictN(1)
	if err := f.Update([]float64{2}); err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	if !mat.VecEqualApprox(c.State(), f.State(), 0) {
		t.Fatal("clone state differs")
	}
	if c.Ticks() != f.Ticks() || c.Updates() != f.Updates() {
		t.Fatal("clone counters differ")
	}
	c.PredictN(1)
	if c.Ticks() == f.Ticks() {
		t.Fatal("clone shares counters with original")
	}
	if mat.VecEqualApprox(c.Covariance().Raw(), f.Covariance().Raw(), 0) {
		t.Fatal("clone shares covariance with original")
	}
}

func TestCountersAdvance(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	f.PredictN(1)
	f.PredictN(1)
	if err := f.Update([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if f.Ticks() != 2 || f.Updates() != 1 {
		t.Fatalf("ticks=%d updates=%d, want 2,1", f.Ticks(), f.Updates())
	}
}

func TestSetNoiseValidation(t *testing.T) {
	f := newRWFilter(t, 0.1, 1)
	if err := f.SetNoise(mat.Identity(2), nil); err == nil {
		t.Fatal("wrong Q shape accepted")
	}
	if err := f.SetNoise(nil, mat.Identity(2)); err == nil {
		t.Fatal("wrong R shape accepted")
	}
	if err := f.SetNoise(mat.Diag(0.5), mat.Diag(2)); err != nil {
		t.Fatal(err)
	}
}

// --- statistical behaviour --------------------------------------------------

// simulateLinear runs a ground-truth linear system with Gaussian noise and
// returns the filter's RMSE tracking the observable.
func rmseTracking(f *Filter, trueF func(t int) float64, r float64, n int, rng *rand.Rand) float64 {
	var sse float64
	for t := 0; t < n; t++ {
		f.PredictN(1)
		truth := trueF(t)
		z := truth + rng.NormFloat64()*math.Sqrt(r)
		if err := f.Update([]float64{z}); err != nil {
			panic(err)
		}
		e := observation(f)[0] - truth
		sse += e * e
	}
	return math.Sqrt(sse / float64(n))
}

func TestFilterBeatsRawMeasurementsOnStaticSignal(t *testing.T) {
	// Constant signal with noisy measurements: the filter's RMSE must be
	// far below the raw measurement noise.
	rng := rand.New(rand.NewSource(42))
	r := 4.0
	f := MustFilter(RandomWalk(1e-6, r), []float64{0}, InitialCovariance(1, 10))
	rmse := rmseTracking(f, func(int) float64 { return 7 }, r, 5000, rng)
	if rmse > 0.5 { // raw noise std is 2.0
		t.Fatalf("RMSE %v too high for static signal", rmse)
	}
}

func TestCVFilterTracksRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := 1.0
	f := MustFilter(ConstantVelocity(1, 1e-4, r), []float64{0, 0}, InitialCovariance(2, 100))
	rmse := rmseTracking(f, func(t int) float64 { return 0.5 * float64(t) }, r, 5000, rng)
	if rmse > 0.5 {
		t.Fatalf("CV RMSE %v too high on ramp", rmse)
	}
	// Velocity estimate should converge to 0.5.
	if v := f.State()[1]; math.Abs(v-0.5) > 0.05 {
		t.Fatalf("velocity estimate %v, want ≈0.5", v)
	}
}

func TestNISConsistencyOnMatchedModel(t *testing.T) {
	// When the generating process matches the model exactly, average NIS
	// over a long run should be ≈ observation dimension (1 here).
	rng := rand.New(rand.NewSource(5))
	q, r := 0.2, 1.0
	f := MustFilter(RandomWalk(q, r), []float64{0}, InitialCovariance(1, 1))
	truth := 0.0
	var nisSum float64
	n := 20000
	for i := 0; i < n; i++ {
		truth += rng.NormFloat64() * math.Sqrt(q)
		z := truth + rng.NormFloat64()*math.Sqrt(r)
		f.PredictN(1)
		nis, err := f.NIS([]float64{z})
		if err != nil {
			t.Fatal(err)
		}
		nisSum += nis
		if err := f.Update([]float64{z}); err != nil {
			t.Fatal(err)
		}
	}
	avg := nisSum / float64(n)
	if avg < 0.9 || avg > 1.1 {
		t.Fatalf("average NIS %v, want ≈1 for a consistent filter", avg)
	}
}

func TestCovarianceConvergesToSteadyState(t *testing.T) {
	// The scalar random-walk Riccati fixed point: P = ((P+Q)·R)/((P+Q)+R).
	q, r := 0.5, 2.0
	f := MustFilter(RandomWalk(q, r), []float64{0}, InitialCovariance(1, 100))
	for i := 0; i < 200; i++ {
		f.PredictN(1)
		if err := f.Update([]float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	p := f.Covariance().At(0, 0)
	// Solve the fixed point: p = (p+q)r/(p+q+r) → p² + pq − qr = 0.
	want := (-q + math.Sqrt(q*q+4*q*r)) / 2
	if math.Abs(p-want) > 1e-9 {
		t.Fatalf("steady-state P = %v, want %v", p, want)
	}
}

// --- properties --------------------------------------------------------------

func TestPropCovarianceStaysSymmetricPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		models := []*Model{
			RandomWalk(0.1+rng.Float64(), 0.1+rng.Float64()),
			ConstantVelocity(1, 0.01+rng.Float64(), 0.1+rng.Float64()),
			ConstantVelocity2D(1, 0.01+rng.Float64(), 0.1+rng.Float64()),
		}
		model := models[rng.Intn(len(models))]
		n := model.StateDim()
		x0 := make([]float64, n)
		f := MustFilter(model, x0, InitialCovariance(n, 1+rng.Float64()*10))
		for i := 0; i < 100; i++ {
			f.PredictN(1)
			if rng.Float64() < 0.7 {
				z := make([]float64, model.ObsDim())
				for j := range z {
					z[j] = rng.NormFloat64() * 5
				}
				if err := f.Update(z); err != nil {
					return false
				}
			}
			p := f.Covariance()
			if !mat.VecIsFinite(p.Raw()) {
				return false
			}
			// Symmetric (exactly, thanks to Symmetrize).
			if !mat.EqualApprox(p, mat.Transpose(p), 0) {
				return false
			}
			// Positive definite check of P + εI by Sylvester's criterion:
			// every leading principal minor is positive.
			padded := mat.Add(p, mat.Scale(1e-9, mat.Identity(n)))
			for k := 1; k <= n; k++ {
				minor := mat.New(k, k)
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						minor.Set(i, j, padded.At(i, j))
					}
				}
				if mat.Det(minor) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropReplicaLockstep(t *testing.T) {
	// Two filters built from the same spec and fed the same update
	// sequence must be bit-identical at every step — the invariant the
	// dual-filter protocol relies on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := ConstantVelocity(1, 0.1, 0.5)
		a := MustFilter(model, []float64{0, 0}, InitialCovariance(2, 1))
		b := MustFilter(model, []float64{0, 0}, InitialCovariance(2, 1))
		for i := 0; i < 200; i++ {
			a.PredictN(1)
			b.PredictN(1)
			if rng.Float64() < 0.3 {
				z := []float64{rng.NormFloat64() * 10}
				if err := a.Update(z); err != nil {
					return false
				}
				if err := b.Update(z); err != nil {
					return false
				}
			}
			if !mat.VecEqualApprox(a.State(), b.State(), 0) {
				return false
			}
			if !mat.EqualApprox(a.Covariance(), b.Covariance(), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropUpdateNeverIncreasesObservableVariance(t *testing.T) {
	// Incorporating a measurement cannot make us less certain about the
	// observed quantity: H·P⁺·Hᵀ ≤ H·P⁻·Hᵀ element-wise on the diagonal.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := ConstantVelocity(1, 0.1+rng.Float64(), 0.1+rng.Float64())
		flt := MustFilter(model, []float64{0, 0}, InitialCovariance(2, 1+rng.Float64()*5))
		for i := 0; i < 50; i++ {
			flt.PredictN(1)
			prior := mat.Mul3(model.H, flt.Covariance(), mat.Transpose(model.H)).At(0, 0)
			if err := flt.Update([]float64{rng.NormFloat64() * 3}); err != nil {
				return false
			}
			post := mat.Mul3(model.H, flt.Covariance(), mat.Transpose(model.H)).At(0, 0)
			if post > prior+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
