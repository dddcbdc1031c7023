package query

import (
	"math"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server/servertest"
)

// probFixture registers one Kalman stream, feeds it a few corrections,
// and advances one tick so queries see a coasting prediction.
func probFixture(t *testing.T, delta float64) (*servertest.Clock, *Engine) {
	t.Helper()
	srv := servertest.New()
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.04}}
	if err := srv.Register("k", spec, delta); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		srv.Tick()
		err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "k", Tick: i, Value: []float64{10}})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Tick()
	return srv, New(srv.Server, srv.At)
}

func TestProbValueBasics(t *testing.T) {
	_, e := probFixture(t, 100) // loose δ: model interval binds
	pa, err := e.ProbValue("k", 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa.Estimate-10) > 0.5 {
		t.Fatalf("estimate %v, want ≈10", pa.Estimate)
	}
	if pa.HalfWidth <= 0 {
		t.Fatalf("half-width %v", pa.HalfWidth)
	}
	if pa.Confidence != 0.95 {
		t.Fatalf("confidence %v", pa.Confidence)
	}
	if pa.HalfWidth != pa.ModelHalfWidth {
		t.Fatalf("loose δ should leave model interval unclamped: %v vs %v", pa.HalfWidth, pa.ModelHalfWidth)
	}
	iv := pa.Interval()
	if !iv.Contains(pa.Estimate) || math.Abs(iv.Width()-2*pa.HalfWidth) > 1e-12 {
		t.Fatalf("interval %+v inconsistent", iv)
	}
}

func TestProbValueClampedByHardBound(t *testing.T) {
	_, e := probFixture(t, 0.01) // δ far tighter than one-step noise
	pa, err := e.ProbValue("k", 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pa.HalfWidth > 0.01+1e-12 {
		t.Fatalf("half-width %v exceeds hard bound 0.01", pa.HalfWidth)
	}
	if pa.ModelHalfWidth <= pa.HalfWidth {
		t.Fatalf("model width %v should exceed clamped width %v", pa.ModelHalfWidth, pa.HalfWidth)
	}
}

func TestProbValueWidthGrowsWithConfidence(t *testing.T) {
	_, e := probFixture(t, 100)
	w90, err := e.ProbValue("k", 0, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	w99, err := e.ProbValue("k", 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if w99.HalfWidth <= w90.HalfWidth {
		t.Fatalf("99%% width %v not wider than 90%% width %v", w99.HalfWidth, w90.HalfWidth)
	}
}

func TestProbValueWidthGrowsWithCoasting(t *testing.T) {
	srv, e := probFixture(t, 100)
	before, err := e.ProbValue("k", 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		srv.Tick()
	}
	after, err := e.ProbValue("k", 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if after.HalfWidth <= before.HalfWidth {
		t.Fatalf("coasting did not widen the interval: %v -> %v", before.HalfWidth, after.HalfWidth)
	}
}

func TestProbValueExactOnCorrectionTick(t *testing.T) {
	srv, e := probFixture(t, 5)
	srv.Tick()
	err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "k", Tick: 99, Value: []float64{42}})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := e.ProbValue("k", 0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Estimate != 42 || pa.HalfWidth != 0 {
		t.Fatalf("correction tick answer %+v, want exactly 42 ± 0", pa)
	}
}

func TestProbValueValidation(t *testing.T) {
	srv, e := probFixture(t, 1)
	for _, conf := range []float64{0, 1, -0.5, 1.5} {
		if _, err := e.ProbValue("k", 0, conf); err == nil {
			t.Errorf("confidence %v accepted", conf)
		}
	}
	if _, err := e.ProbValue("nope", 0, 0.9); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := e.ProbValue("k", 5, 0.9); err == nil {
		t.Error("out-of-range component accepted")
	}
	// Predictors without a distribution are rejected.
	if err := srv.Register("flat", predictor.Spec{Kind: predictor.KindStatic, Dim: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProbValue("flat", 0, 0.9); err == nil {
		t.Error("distribution-free predictor accepted")
	}
}

func TestValueDistributionBank(t *testing.T) {
	srv := servertest.New()
	spec := predictor.Spec{Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
		{Kind: predictor.ModelRandomWalk, Q: 0.5, R: 0.1},
		{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1},
	}}
	if err := srv.Register("bank", spec, 1); err != nil {
		t.Fatal(err)
	}
	srv.Tick()
	err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "bank", Tick: 0, Value: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	est, std, err := srv.ValueDistribution("bank", srv.At())
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 1 || len(std) != 1 || std[0] <= 0 {
		t.Fatalf("distribution = %v ± %v", est, std)
	}
}
