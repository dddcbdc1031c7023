package kalman

import (
	"math"
	"math/rand"
	"testing"

	"kalmanstream/internal/mat"
)

func TestFilterRestoreAndObservationVariance(t *testing.T) {
	f := MustFilter(RandomWalk(0.5, 2), []float64{0}, InitialCovariance(1, 1))
	if err := f.Restore([]float64{0, 4}); err != nil {
		t.Fatal(err)
	}
	// Predictive variance = P + R = 4 + 2 (no Predict yet: uses current P).
	v := f.ObservationVariance()
	if len(v) != 1 || math.Abs(v[0]-6) > 1e-12 {
		t.Fatalf("observation variance = %v, want [6]", v)
	}
	if err := f.Restore([]float64{0, 1, 0, 0, 1}); err == nil {
		t.Fatal("wrong-length snapshot accepted")
	}
}

func TestBankAccessors(t *testing.T) {
	b, err := NewBank([]*Model{RandomWalk(1, 0.5), ConstantVelocity(1, 0.1, 0.5)}, BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if b.FilterAt(0).Model().Name != "random-walk" {
		t.Fatal("FilterAt(0) wrong model")
	}
	if err := b.SetWeights([]float64{0.75, 0.25}); err != nil {
		t.Fatal(err)
	}
	w := b.AppendWeights(nil)
	if w[0] != 0.75 || w[1] != 0.25 {
		t.Fatalf("weights = %v", w)
	}
	if err := b.SetWeights([]float64{0.5}); err == nil {
		t.Fatal("wrong count accepted")
	}
	if err := b.SetWeights([]float64{0.5, 0.6}); err == nil {
		t.Fatal("non-normalized weights accepted")
	}
	if err := b.SetWeights([]float64{1.2, -0.2}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestBankObservationVarianceIncludesDisagreement(t *testing.T) {
	b, err := NewBank([]*Model{RandomWalk(0.1, 0.1), ConstantVelocity(1, 0.05, 0.1)}, BankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Train on a ramp so the two models disagree on the next value: the
	// RW predicts flat, the CV predicts the trend.
	for i := 0; i < 100; i++ {
		b.PredictN(1)
		if err := b.Update([]float64{float64(i) * 2}); err != nil {
			t.Fatal(err)
		}
	}
	b.PredictN(1)
	variance := b.ObservationVariance()[0]
	// Mixture variance must be at least each member's own variance share
	// plus the disagreement term; with models predicting values far
	// apart, it must exceed the smaller member variance alone.
	minMember := math.Min(b.FilterAt(0).ObservationVariance()[0], b.FilterAt(1).ObservationVariance()[0])
	if variance <= minMember {
		t.Fatalf("mixture variance %v not above member floor %v despite disagreement", variance, minMember)
	}
	if math.IsNaN(variance) || variance <= 0 {
		t.Fatalf("variance = %v", variance)
	}
}

func TestAdaptiveSnapshotRestoreDirect(t *testing.T) {
	mk := func() *Adaptive {
		f := MustFilter(RandomWalk(0.1, 1), []float64{0}, InitialCovariance(1, 1))
		a, err := NewAdaptive(f, AdaptiveConfig{Window: 16, AdaptR: true, AdaptQ: true})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := mk()
	rng := rand.New(rand.NewSource(5))
	truth := 0.0
	for i := 0; i < 200; i++ {
		truth += rng.NormFloat64()
		a.Filter().PredictN(1)
		if err := a.Update([]float64{truth + rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	b := mk()
	if err := b.Restore(a.AppendSnapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if a.QScale() != b.QScale() {
		t.Fatalf("QScale %v vs %v after restore", a.QScale(), b.QScale())
	}
	// Identical behaviour from here, including re-estimation events.
	for i := 0; i < 100; i++ {
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
			t.Fatalf("step %d: states diverged after restore", i)
		}
		if a.QScale() != b.QScale() {
			t.Fatalf("step %d: QScale diverged after restore", i)
		}
	}
}

func TestAdaptiveRestoreRejectsGarbage(t *testing.T) {
	f := MustFilter(RandomWalk(0.1, 1), []float64{0}, InitialCovariance(1, 1))
	a, err := NewAdaptive(f, AdaptiveConfig{Window: 8, AdaptR: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Restore([]float64{1, 2, 3}); err == nil {
		t.Error("truncated snapshot accepted")
	}
	snap := a.AppendSnapshot(nil)
	if err := a.Restore(append(snap, 9)); err == nil {
		t.Error("oversized snapshot accepted")
	}
	// Corrupt the window metadata (count) to an impossible value.
	bad := append([]float64(nil), snap...)
	bad[len(bad)-1] = 0 // harmless tail change first to keep length logic
	snap2 := a.AppendSnapshot(nil)
	// count lives at index head-1 = n+n²+n²+m²+6 = 1+1+1+1+6 = 10.
	snap2[10] = 999
	if err := a.Restore(snap2); err == nil {
		t.Error("corrupt window count accepted")
	}
}

// TestAdaptiveRestoreRejectsImpossibleWindow: Restore accepts only the
// window metadata AppendSnapshot produces — 0 ≤ next < window, count =
// window once the ring has filled and count = next before — and refuses
// anything else before the replica moves. Each refused shape is finite
// and has the length its count implies, so only the metadata check
// stands between it and a panic in a later Update.
func TestAdaptiveRestoreRejectsImpossibleWindow(t *testing.T) {
	const window = 4
	// A 1-state snapshot: x, P, Q, R, qScale, nisSum, nisCount, steps,
	// next, filled, count, then count × (innovation, H·P·Hᵀ).
	meta := func(next, filled, count int) []float64 {
		s := []float64{0.5, 1, 0.1, 1, 1, 0, 0, 0, float64(next), float64(filled), float64(count)}
		for i := 0; i < count; i++ {
			s = append(s, 0.25, 1)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		snap  []float64
		valid bool
	}{
		{"fresh", meta(0, 0, 0), true},
		{"partly filled", meta(3, 0, 3), true},
		{"filled", meta(1, 1, window), true},
		{"next at window", meta(window, 0, window), false},
		{"next beyond window", meta(window+1, 0, window), false},
		{"negative next", meta(-1, 0, 0), false},
		{"filled with count 0", meta(0, 1, 0), false},
		{"filled with count below window", meta(0, 1, 2), false},
		{"unfilled with count past next", meta(1, 0, 2), false},
		{"unfilled with count before next", meta(2, 0, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := MustFilter(RandomWalk(0.1, 1), []float64{0}, InitialCovariance(1, 1))
			a, err := NewAdaptive(f, AdaptiveConfig{Window: window, AdaptR: true, AdaptQ: true})
			if err != nil {
				t.Fatal(err)
			}
			before := a.AppendSnapshot(nil)
			err = a.Restore(tc.snap)
			if !tc.valid {
				if err == nil {
					t.Fatal("impossible window metadata accepted")
				}
				if after := a.AppendSnapshot(nil); !mat.VecEqualApprox(after, before, 0) {
					t.Fatalf("refused restore moved the replica: %v, was %v", after, before)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*window; i++ { // every update re-estimates at this window
				f.PredictN(1)
				if err := a.Update([]float64{float64(i)}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
