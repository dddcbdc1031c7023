package predictor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kalmanstream/internal/kalman"
	"kalmanstream/internal/mat"
	"kalmanstream/internal/stream"
)

// predict returns p's prediction in a fresh slice.
func predict(p Predictor) []float64 { return p.PredictInto(make([]float64, p.Dim())) }

func allSpecs() []Spec {
	return []Spec{
		{Kind: KindStatic, Dim: 1},
		{Kind: KindDeadReckoning, Dim: 1},
		{Kind: KindEWMA, Dim: 1, Alpha: 0.5},
		{Kind: KindHolt, Dim: 1, Alpha: 0.5, Beta: 0.2},
		{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.05, R: 0.5}},
		{Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalk, Q: 0.1, R: 0.5}},
		{Kind: KindKalman, Adaptive: true, AdaptiveWindow: 32,
			Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.05, R: 0.5}},
		{Kind: KindKalmanBank, Models: []ModelSpec{
			{Kind: ModelRandomWalk, Q: 0.5, R: 0.1},
			{Kind: ModelConstantVelocity, Q: 0.05, R: 0.1},
		}},
	}
}

func TestSpecBuildAllKinds(t *testing.T) {
	for _, s := range allSpecs() {
		p, err := s.Build()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if p.Dim() != s.ObsDim() {
			t.Errorf("%s: Dim() = %d, ObsDim = %d", p.Name(), p.Dim(), s.ObsDim())
		}
		if p.Name() == "" {
			t.Errorf("spec %+v built predictor with empty name", s)
		}
	}
}

func TestSpecBuildRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Kind: "nonsense"},
		{Kind: KindStatic},                // no dim
		{Kind: KindDeadReckoning, Dim: 0}, // no dim
		{Kind: KindEWMA, Dim: 1, Alpha: 0},
		{Kind: KindEWMA, Dim: 1, Alpha: 1.5},
		{Kind: KindHolt, Dim: 0, Alpha: 0.5, Beta: 0.2},
		{Kind: KindHolt, Dim: 1, Alpha: 0, Beta: 0.2},
		{Kind: KindHolt, Dim: 1, Alpha: 0.5, Beta: 2},
		{Kind: KindKalman, Model: ModelSpec{Kind: "nope", Q: 1, R: 1}},
		{Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalk, Q: 0, R: 1}},
		{Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalkND, Q: 1, R: 1, Dim: 0}},
		{Kind: KindKalmanBank}, // no candidate models
		{Kind: KindKalmanBank, Models: []ModelSpec{{Kind: "nope", Q: 1, R: 1}}},
		{Kind: KindKalmanBank, Models: []ModelSpec{ // mixed obs dims
			{Kind: ModelRandomWalk, Q: 1, R: 1},
			{Kind: ModelConstantVelocity2D, Q: 1, R: 1},
		}},
	}
	for i, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d: bad spec %+v accepted", i, s)
		}
	}
}

// TestSpecBuildSizeLimits: a spec at every limit builds, and its snapshot
// stays within MaxSnapshot once its adaptive window has filled; one past
// any limit, the snapshot bound included, is refused
// with ErrSpecTooLarge, whatever else is wrong with it.
func TestSpecBuildSizeLimits(t *testing.T) {
	rw := ModelSpec{Kind: ModelRandomWalk, Q: 1, R: 1}
	bank := func(n int, m ModelSpec) []ModelSpec {
		ms := make([]ModelSpec, n)
		for i := range ms {
			ms[i] = m
		}
		return ms
	}
	rwND := func(dim int) ModelSpec { return ModelSpec{Kind: ModelRandomWalkND, Q: 1, R: 1, Dim: dim} }
	at := []Spec{
		{Kind: KindStatic, Dim: MaxDim},
		{Kind: KindHolt, Dim: MaxDim, Alpha: 0.5, Beta: 0.2},
		{Kind: KindKalman, Model: rwND(MaxDim)},
		{Kind: KindKalman, Model: rw, Adaptive: true, AdaptiveWindow: MaxAdaptiveWindow},
		{Kind: KindKalmanBank, Models: bank(MaxModels, rw)},
		{Kind: KindKalmanBank, Models: bank(2, rwND(MaxDim))},
		{Kind: KindKalmanBank, Models: bank(MaxModels, rwND(MaxDim))},
		{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity2D, Q: 1, R: 1}, Adaptive: true, AdaptiveWindow: MaxAdaptiveWindow},
		// The largest adaptive replicas whose full snapshots fit
		// MaxSnapshot: the widest window at MaxDim, the widest dim at
		// the default window.
		{Kind: KindKalman, Model: rwND(MaxDim), Adaptive: true, AdaptiveWindow: 12},
		{Kind: KindKalman, Model: rwND(30), Adaptive: true},
	}
	for i, s := range at {
		p, err := s.Build()
		if err != nil {
			t.Errorf("case %d: spec at the limits refused: %v", i, err)
			continue
		}
		// Fill an adaptive window: its snapshot grows until then.
		z := make([]float64, p.Dim())
		for k := 0; s.Adaptive && k <= max(s.AdaptiveWindow, kalman.DefaultWindow); k++ {
			p.Step()
			z[0] = float64(k % 7)
			if err := p.Correct(z); err != nil {
				t.Fatalf("case %d: correct %d: %v", i, k, err)
			}
		}
		if n := len(p.AppendSnapshot(nil)); n > MaxSnapshot {
			t.Errorf("case %d: full snapshot has %d floats, past MaxSnapshot %d", i, n, MaxSnapshot)
		}
	}
	past := []Spec{
		{Kind: KindStatic, Dim: MaxDim + 1},
		{Kind: KindEWMA, Dim: 1 << 30, Alpha: 0.5},
		{Kind: KindKalman, Model: rwND(MaxDim + 1)},
		{Kind: KindKalman, Model: rw, Adaptive: true, AdaptiveWindow: MaxAdaptiveWindow + 1},
		{Kind: KindKalman, Model: rwND(MaxDim), Adaptive: true, AdaptiveWindow: MaxAdaptiveWindow},
		{Kind: KindKalman, Model: rwND(MaxDim), Adaptive: true, AdaptiveWindow: 13},
		{Kind: KindKalman, Model: rwND(31), Adaptive: true},
		{Kind: KindKalmanBank, Models: bank(MaxModels+1, rw)},
		{Kind: KindKalmanBank, Models: []ModelSpec{rw, rwND(MaxDim + 1)}},
		{Kind: "nonsense", Dim: MaxDim + 1},
	}
	for i, s := range past {
		if _, err := s.Build(); !errors.Is(err, ErrSpecTooLarge) {
			t.Errorf("case %d: spec past a limit: err %v, want ErrSpecTooLarge", i, err)
		}
	}
}

func TestModelSpecObsDim(t *testing.T) {
	cases := []struct {
		ms   ModelSpec
		want int
	}{
		{ModelSpec{Kind: ModelRandomWalk, Q: 1, R: 1}, 1},
		{ModelSpec{Kind: ModelRandomWalkND, Q: 1, R: 1, Dim: 3}, 3},
		{ModelSpec{Kind: ModelConstantVelocity, Q: 1, R: 1}, 1},
		{ModelSpec{Kind: ModelConstantVelocity2D, Q: 1, R: 1}, 2},
	}
	for _, c := range cases {
		if got := c.ms.ObsDim(); got != c.want {
			t.Errorf("%s: ObsDim = %d, want %d", c.ms.Kind, got, c.want)
		}
		model, err := c.ms.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.ms.Kind, err)
		}
		if model.ObsDim() != c.want {
			t.Errorf("%s: built ObsDim = %d, want %d", c.ms.Kind, model.ObsDim(), c.want)
		}
	}
}

func TestStaticPredictsLastValue(t *testing.T) {
	p := NewStatic(1)
	if got := predict(p)[0]; got != 0 {
		t.Fatalf("initial prediction %v, want 0", got)
	}
	if err := p.Correct([]float64{7}); err != nil {
		t.Fatal(err)
	}
	p.Step()
	p.Step()
	if got := predict(p)[0]; got != 7 {
		t.Fatalf("prediction %v, want 7 (static ignores time)", got)
	}
}

func TestDeadReckoningExtrapolates(t *testing.T) {
	p := NewDeadReckoning(1)
	p.Step()
	if err := p.Correct([]float64{10}); err != nil {
		t.Fatal(err)
	}
	p.Step()
	p.Step() // two ticks pass
	if err := p.Correct([]float64{14}); err != nil {
		t.Fatal(err)
	}
	// Slope is (14−10)/2 = 2 per tick.
	p.Step()
	p.Step()
	p.Step()
	if got := predict(p)[0]; math.Abs(got-20) > 1e-12 {
		t.Fatalf("prediction %v, want 20", got)
	}
}

func TestDeadReckoningBeforeTwoCorrections(t *testing.T) {
	p := NewDeadReckoning(1)
	p.Step()
	if got := predict(p)[0]; got != 0 {
		t.Fatalf("prediction before corrections %v, want 0", got)
	}
	if err := p.Correct([]float64{5}); err != nil {
		t.Fatal(err)
	}
	p.Step()
	p.Step()
	if got := predict(p)[0]; got != 5 {
		t.Fatalf("prediction after one correction %v, want 5 (no slope yet)", got)
	}
}

func TestDeadReckoningZeroGapCorrection(t *testing.T) {
	// Two corrections on the same tick must not divide by zero.
	p := NewDeadReckoning(1)
	if err := p.Correct([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Correct([]float64{2}); err != nil {
		t.Fatal(err)
	}
	p.Step()
	got := predict(p)[0]
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero-gap correction produced %v", got)
	}
}

func TestEWMABlends(t *testing.T) {
	p, err := NewEWMA(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Correct([]float64{10}); err != nil {
		t.Fatal(err)
	}
	if got := predict(p)[0]; got != 10 {
		t.Fatalf("first correction should prime: %v", got)
	}
	if err := p.Correct([]float64{20}); err != nil {
		t.Fatal(err)
	}
	if got := predict(p)[0]; got != 15 {
		t.Fatalf("EWMA = %v, want 15", got)
	}
}

func TestCorrectDimValidation(t *testing.T) {
	ps := []Predictor{NewStatic(2), NewDeadReckoning(2)}
	e, _ := NewEWMA(2, 0.3)
	ps = append(ps, e)
	for _, p := range ps {
		if err := p.Correct([]float64{1}); err == nil {
			t.Errorf("%s accepted wrong-dim correction", p.Name())
		}
	}
}

func TestKalmanPredictorTracksRamp(t *testing.T) {
	spec := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.01, R: 0.1}}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Feed a ramp through corrections every tick; after convergence the
	// predictor should anticipate the next value, not lag it.
	for i := 0; i < 200; i++ {
		p.Step()
		if err := p.Correct([]float64{float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
	}
	p.Step() // tick 200, expected value 400
	if got := predict(p)[0]; math.Abs(got-400) > 1 {
		t.Fatalf("kalman ramp prediction %v, want ≈400", got)
	}
}

func TestKalmanCoastsBetweenCorrections(t *testing.T) {
	spec := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.01, R: 0.1}}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Step()
		if err := p.Correct([]float64{float64(i) * 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Now stop correcting: predictions must keep advancing by ≈3/tick.
	prev := predict(p)[0]
	for i := 0; i < 10; i++ {
		p.Step()
		cur := predict(p)[0]
		if math.Abs(cur-prev-3) > 0.5 {
			t.Fatalf("coasting step %d advanced by %v, want ≈3", i, cur-prev)
		}
		prev = cur
	}
}

// --- replica lock-step: the protocol-critical property ---------------------

func TestPropReplicaLockstepAllKinds(t *testing.T) {
	// For every predictor kind: two replicas built from the same spec and
	// fed the same step/correct schedule agree exactly at every tick.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := allSpecs()
		spec := specs[rng.Intn(len(specs))]
		a, err := spec.Build()
		if err != nil {
			return false
		}
		b, err := spec.Build()
		if err != nil {
			return false
		}
		for i := 0; i < 300; i++ {
			a.Step()
			b.Step()
			if rng.Float64() < 0.3 {
				z := make([]float64, spec.ObsDim())
				for j := range z {
					z[j] = rng.NormFloat64() * 10
				}
				if err := a.Correct(z); err != nil {
					return false
				}
				if err := b.Correct(z); err != nil {
					return false
				}
			}
			if !mat.VecEqualApprox(predict(a), predict(b), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPredictionsAlwaysFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := allSpecs()
		spec := specs[rng.Intn(len(specs))]
		p, err := spec.Build()
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			p.Step()
			if rng.Float64() < 0.2 {
				z := make([]float64, spec.ObsDim())
				for j := range z {
					z[j] = rng.NormFloat64() * 1000
				}
				if err := p.Correct(z); err != nil {
					return false
				}
			}
			if !mat.VecIsFinite(predict(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- comparative behaviour ---------------------------------------------------

// predictionRMSE drives p over pts with a correction every tick and
// returns the RMSE of the one-step-ahead predictions.
func predictionRMSE(t *testing.T, p Predictor, pts []stream.Point) float64 {
	t.Helper()
	var sse float64
	var n int
	for _, pt := range pts {
		p.Step()
		pred := predict(p)
		for k := range pred {
			e := pred[k] - pt.Value[k]
			sse += e * e
			n++
		}
		if err := p.Correct(pt.Value); err != nil {
			t.Fatal(err)
		}
	}
	return math.Sqrt(sse / float64(n))
}

func TestKalmanBeatsStaticOnRamp(t *testing.T) {
	pts := stream.Record(stream.NewLinearDrift(1, 0, 1, 0.2, 3000))
	kf, err := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.001, R: 0.04}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatic(1)
	kfRMSE := predictionRMSE(t, kf, pts)
	stRMSE := predictionRMSE(t, st, pts)
	if kfRMSE >= stRMSE/2 {
		t.Fatalf("kalman RMSE %v not clearly better than static %v on ramp", kfRMSE, stRMSE)
	}
}

func TestKalmanCompetitiveOnRandomWalk(t *testing.T) {
	// On a pure random walk nothing can beat last-value; the KF with a
	// random-walk model must converge to it, i.e. be within a few percent.
	pts := stream.Record(stream.NewRandomWalk(2, 0, 1, 0, 20000))
	kf, err := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalk, Q: 1, R: 0.0001}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := NewStatic(1)
	kfRMSE := predictionRMSE(t, kf, pts)
	stRMSE := predictionRMSE(t, st, pts)
	if kfRMSE > stRMSE*1.05 {
		t.Fatalf("kalman RMSE %v much worse than static %v on random walk", kfRMSE, stRMSE)
	}
}

func TestKalmanBeatsDeadReckoningOnNoisySine(t *testing.T) {
	pts := stream.Record(stream.NewSine(3, 0, 10, 200, 0, 0.5, 5000))
	kf, err := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.01, R: 0.25}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDeadReckoning(1)
	kfRMSE := predictionRMSE(t, kf, pts)
	drRMSE := predictionRMSE(t, dr, pts)
	if kfRMSE >= drRMSE {
		t.Fatalf("kalman RMSE %v not better than dead reckoning %v on noisy sine", kfRMSE, drRMSE)
	}
}
