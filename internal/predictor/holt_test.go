package predictor

import (
	"math"
	"testing"

	"kalmanstream/internal/stream"
)

func TestHoltTracksCleanRamp(t *testing.T) {
	p, err := NewHolt(1, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Step()
		if err := p.Correct([]float64{float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
	}
	// Extrapolate 5 ticks ahead: expect ≈ 2·103 = 206... last correction
	// was at value 198 (i=99); 5 ticks later the truth is 208.
	for i := 0; i < 5; i++ {
		p.Step()
	}
	if got := predict(p)[0]; math.Abs(got-208) > 2 {
		t.Fatalf("holt ramp extrapolation %v, want ≈208", got)
	}
}

func TestHoltInitializationStages(t *testing.T) {
	p, err := NewHolt(1, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := predict(p)[0]; got != 0 {
		t.Fatalf("uninitialized prediction %v", got)
	}
	if err := p.Correct([]float64{10}); err != nil {
		t.Fatal(err)
	}
	p.Step()
	// One correction: no trend yet, constant forecast.
	if got := predict(p)[0]; got != 10 {
		t.Fatalf("single-correction prediction %v, want 10", got)
	}
	p.Step()
	if err := p.Correct([]float64{16}); err != nil { // 2 ticks later: slope 3
		t.Fatal(err)
	}
	p.Step()
	if got := predict(p)[0]; math.Abs(got-19) > 1e-9 {
		t.Fatalf("two-correction prediction %v, want 19", got)
	}
}

func TestHoltZeroGapCorrectionSafe(t *testing.T) {
	p, err := NewHolt(1, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // several same-tick corrections
		if err := p.Correct([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.Step()
	got := predict(p)[0]
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero-gap corrections produced %v", got)
	}
}

func TestHoltSmoothsNoiseBetterThanDeadReckoningOnNoisyRamp(t *testing.T) {
	pts := stream.Record(stream.NewLinearDrift(8, 0, 1, 2.0, 5000)) // heavy noise
	holt, err := NewHolt(1, 0.3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dr := NewDeadReckoning(1)
	hRMSE := predictionRMSE(t, holt, pts)
	dRMSE := predictionRMSE(t, dr, pts)
	if hRMSE >= dRMSE {
		t.Fatalf("holt RMSE %v not better than dead reckoning %v on noisy ramp", hRMSE, dRMSE)
	}
}
