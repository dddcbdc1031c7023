package predictor

import (
	"math"
	"math/rand"
	"testing"
)

// TestStepNEqualsRepeatedStep is the contract lazy advance rests on: for
// every predictor kind, StepN(k) leaves the replica bit-identical — on its
// whole Snapshot, not just its prediction — to k Step calls, so a server
// that advances in one call stays in lock-step with a source that ticks.
func TestStepNEqualsRepeatedStep(t *testing.T) {
	specs := append(allSpecs(),
		Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantAcceleration, Q: 0.01, R: 0.5}},
		Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity2D, Q: 0.05, R: 0.5}},
		Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalkND, Dim: 3, Q: 0.1, R: 0.5}},
	)
	for _, spec := range specs {
		rng := rand.New(rand.NewSource(16))
		once, each := mustBuild(t, spec), mustBuild(t, spec)
		for round := 0; round < 60; round++ {
			k := []int64{0, 1, 2, 7, 200}[round%5]
			once.StepN(k)
			for i := int64(0); i < k; i++ {
				each.Step()
			}
			if rng.Intn(3) > 0 {
				z := make([]float64, spec.ObsDim())
				for j := range z {
					z[j] = rng.NormFloat64() * 10
				}
				if err := once.Correct(z); err != nil {
					t.Fatalf("%s: %v", once.Name(), err)
				}
				if err := each.Correct(z); err != nil {
					t.Fatalf("%s: %v", each.Name(), err)
				}
			}
			a, b := once.AppendSnapshot(nil), each.AppendSnapshot(nil)
			if len(a) != len(b) {
				t.Fatalf("%s round %d: snapshot lengths %d vs %d", once.Name(), round, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s round %d (k=%d): snapshot[%d] StepN %x (%g) vs Step %x (%g)",
						once.Name(), round, k, i, math.Float64bits(a[i]), a[i], math.Float64bits(b[i]), b[i])
				}
			}
		}
		// A negative count is no step at all, never a step back.
		before := once.AppendSnapshot(nil)
		once.StepN(-3)
		for i, v := range once.AppendSnapshot(nil) {
			if math.Float64bits(v) != math.Float64bits(before[i]) {
				t.Fatalf("%s: StepN(-3) changed snapshot[%d]", once.Name(), i)
			}
		}
	}
}

func mustBuild(t *testing.T, s Spec) Predictor {
	t.Helper()
	p, err := s.Build()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	return p
}

// TestBuildAllocationCeiling keeps registration cheap: the two replica
// kinds a large deployment is made of build in exactly 14 allocations (60
// before kernel shapes stopped allocating the mat path's scratch — over
// half of all objects a 10,000-stream set-up made — and 16 before the
// predictor, its filter and the filter's block became one object). Most
// of the 14 are the model's matrices and the initial state, which the
// filter copies and drops.
func TestBuildAllocationCeiling(t *testing.T) {
	for name, spec := range map[string]Spec{
		"rw1": {Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalk, Q: 0.25, R: 0.0025}},
		"cv2": {Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.05, R: 0.1}},
	} {
		got := testing.AllocsPerRun(100, func() {
			if _, err := spec.Build(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 14 {
			t.Errorf("%s: Build makes %.0f allocations, want 14", name, got)
		}
	}
}

// TestKalmanRestoreAllocatesNothing: the borrow a server read ahead of a
// record makes — snapshot into spare capacity, step the gap, Restore —
// allocates nothing for the two kernel shapes, and leaves the replica's
// state bit-identical.
func TestKalmanRestoreAllocatesNothing(t *testing.T) {
	for _, name := range []string{"rw1", "cv2"} {
		p, err := kernelSpecs[name].Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := range 5 {
			p.StepN(int64(i))
			if err := p.Correct([]float64{float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		want := p.AppendSnapshot(nil)
		snap := make([]float64, 0, len(want))
		got := testing.AllocsPerRun(100, func() {
			snap = p.AppendSnapshot(snap[:0])
			p.StepN(40)
			if err := p.Restore(snap); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: snapshot, StepN and Restore allocate %.0f times, want 0", name, got)
		}
		if after := p.AppendSnapshot(nil); !sameBits(after, want) {
			t.Errorf("%s: state after the borrow %v, before %v", name, after, want)
		}
	}
}
