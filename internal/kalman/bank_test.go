package kalman

import (
	"math"
	"math/rand"
	"testing"

	"kalmanstream/internal/mat"
)

func threeModelBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank([]*Model{
		RandomWalk(0.5, 0.1),
		ConstantVelocity(1, 0.05, 0.1),
		ConstantAcceleration(1, 0.01, 0.1),
	}, BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(nil, BankConfig{}); err == nil {
		t.Fatal("empty bank accepted")
	}
	if _, err := NewBank([]*Model{RandomWalk(1, 1), ConstantVelocity2D(1, 1, 1)}, BankConfig{}); err == nil {
		t.Fatal("mixed obs dims accepted")
	}
	if _, err := NewBank([]*Model{RandomWalk(1, 1), RandomWalk(2, 2)}, BankConfig{Floor: 0.6}); err == nil {
		t.Fatal("excessive floor accepted")
	}
	bad := &Model{Name: "bad", F: mat.Identity(2), H: mat.Identity(1), Q: mat.Identity(2), R: mat.Identity(1)}
	if _, err := NewBank([]*Model{bad}, BankConfig{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestBankInitialWeightsUniform(t *testing.T) {
	b := threeModelBank(t)
	for _, w := range b.AppendWeights(nil) {
		if math.Abs(w-1.0/3) > 1e-12 {
			t.Fatalf("weights = %v", b.AppendWeights(nil))
		}
	}
	if b.Size() != 3 || b.ObsDim() != 1 {
		t.Fatalf("size=%d obsdim=%d", b.Size(), b.ObsDim())
	}
}

func TestBankWeightsSumToOne(t *testing.T) {
	b := threeModelBank(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b.PredictN(1)
		if err := b.Update([]float64{rng.NormFloat64() * 5}); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, w := range b.AppendWeights(nil) {
			if w <= 0 {
				t.Fatalf("step %d: non-positive weight %v", i, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: weights sum to %v", i, sum)
		}
	}
}

func TestBankSelectsRampModelOnRamp(t *testing.T) {
	b := threeModelBank(t)
	for i := 0; i < 400; i++ {
		b.PredictN(1)
		if err := b.Update([]float64{2 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The random-walk model (index 0) cannot explain a steady ramp; a
	// kinematic model must dominate.
	idx, w := b.Dominant()
	if idx == 0 {
		t.Fatalf("random-walk dominant on a ramp (weights %v)", b.AppendWeights(nil))
	}
	if w < 0.5 {
		t.Fatalf("dominant weight %v too weak (weights %v)", w, b.AppendWeights(nil))
	}
	// And its blended prediction should anticipate the ramp.
	b.PredictN(1)
	if got := bankObservation(b)[0]; math.Abs(got-800) > 5 {
		t.Fatalf("bank ramp prediction %v, want ≈800", got)
	}
}

func TestBankReselectsAfterRegimeSwitch(t *testing.T) {
	b := threeModelBank(t)
	// Regime 1: ramp — kinematic models win.
	v := 0.0
	for i := 0; i < 300; i++ {
		v += 3
		b.PredictN(1)
		if err := b.Update([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	idxRamp, _ := b.Dominant()
	if idxRamp == 0 {
		t.Fatalf("ramp regime: random walk dominant")
	}
	// Regime 2: noisy flat line — the random-walk model should recover
	// thanks to the probability floor.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 600; i++ {
		b.PredictN(1)
		if err := b.Update([]float64{v + rng.NormFloat64()*2}); err != nil {
			t.Fatal(err)
		}
	}
	idxFlat, _ := b.Dominant()
	if idxFlat != 0 {
		t.Fatalf("flat regime: dominant model %d (weights %v), want random walk", idxFlat, b.AppendWeights(nil))
	}
}

func TestBankSurvivesOutliers(t *testing.T) {
	b := threeModelBank(t)
	for i := 0; i < 50; i++ {
		b.PredictN(1)
		if err := b.Update([]float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	// A gross outlier must not produce NaN weights or state.
	b.PredictN(1)
	if err := b.Update([]float64{1e12}); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.AppendWeights(nil) {
		if math.IsNaN(w) || w <= 0 {
			t.Fatalf("weights corrupted: %v", b.AppendWeights(nil))
		}
	}
	if !mat.VecIsFinite(bankObservation(b)) {
		t.Fatal("observation not finite after outlier")
	}
}

func TestBankUpdateWrongDim(t *testing.T) {
	b := threeModelBank(t)
	if err := b.Update([]float64{1, 2}); err == nil {
		t.Fatal("wrong-dim update accepted")
	}
}

func TestBankBeatsWorstFixedModelOnSwitchingSignal(t *testing.T) {
	// A signal alternating between flat and ramp segments: the bank's
	// one-step prediction error should be well below the worst fixed
	// model and close to an oracle that knows the regime.
	mkSignal := func() []float64 {
		out := make([]float64, 2000)
		v, slope := 0.0, 0.0
		for i := range out {
			if i%400 == 0 {
				if slope == 0 {
					slope = 1.5
				} else {
					slope = 0
				}
			}
			v += slope
			out[i] = v
		}
		return out
	}
	signal := mkSignal()

	sse := func(predict func() float64, update func(float64)) float64 {
		var s float64
		for _, v := range signal {
			p := predict()
			d := p - v
			s += d * d
			update(v)
		}
		return s
	}

	bank := threeModelBank(t)
	bankSSE := sse(
		func() float64 { bank.PredictN(1); return bankObservation(bank)[0] },
		func(v float64) {
			if err := bank.Update([]float64{v}); err != nil {
				t.Fatal(err)
			}
		})

	rw := MustFilter(RandomWalk(0.5, 0.1), []float64{0}, InitialCovariance(1, 1e6))
	rwSSE := sse(
		func() float64 { rw.PredictN(1); return observation(rw)[0] },
		func(v float64) {
			if err := rw.Update([]float64{v}); err != nil {
				t.Fatal(err)
			}
		})

	if bankSSE >= rwSSE {
		t.Fatalf("bank SSE %v not better than fixed random walk %v on switching signal", bankSSE, rwSSE)
	}
}

// TestBankObservationIntoBitIdentical: the bank's blend, computed per
// component with no scratch, has the bits of the allocating blend it
// replaced — Σᵢ wᵢ·(Hᵢxᵢ) accumulated vector-wise in model order from a
// zeroed vector — on the kernel shapes and on the mat path alike, and
// whatever dst held before.
func TestBankObservationIntoBitIdentical(t *testing.T) {
	for _, models := range [][]*Model{
		{RandomWalk(0.5, 0.1), ConstantVelocity(1, 0.05, 0.1), ConstantAcceleration(1, 0.01, 0.1)},
		{ConstantVelocity2D(1, 0.1, 1), RandomWalkND(2, 0.5, 1)},
	} {
		b, err := NewBank(models, BankConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(40))
		for i := 0; i < 200; i++ {
			b.PredictN(int64(i % 3))
			z := make([]float64, b.ObsDim())
			for k := range z {
				z[k] = float64(i)*0.7 + rng.NormFloat64()
			}
			if i%4 != 0 {
				if err := b.Update(z); err != nil {
					t.Fatal(err)
				}
			}
			want := make([]float64, b.ObsDim())
			w := b.AppendWeights(nil)
			for j := 0; j < b.Size(); j++ {
				f := b.FilterAt(j)
				o := mat.MulVec(f.Model().H, f.State())
				for k := range want {
					want[k] += w[j] * o[k]
				}
			}
			got := b.ObservationInto(0, []float64{math.NaN(), math.Inf(1)}[:b.ObsDim()])
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%d models, step %d: component %d = %v, want %v", b.Size(), i, k, got[k], want[k])
				}
			}
		}
	}
}
