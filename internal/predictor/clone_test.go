package predictor

import (
	"math/rand"
	"sync"
	"testing"
)

// cloneSpecs are the kinds the clone contract covers: every built-in
// (static, dead reckoning, EWMA, Holt, cv2, rw1, an adaptive cv2 and a
// bank), a generic shape (constant acceleration, the mat path) and an
// adaptive rw1 whose window of 4 wraps many times.
func cloneSpecs() []Spec {
	return append(allSpecs(),
		Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantAcceleration, Q: 0.01, R: 0.5}},
		Spec{Kind: KindKalman, Adaptive: true, AdaptiveWindow: 4, Model: ModelSpec{Kind: ModelRandomWalk, Q: 0.1, R: 0.5}})
}

// lockstep drives a and b through the same seeded rounds of Step, StepN,
// Correct, PredictInto, AppendSnapshot and, halfway, Restore from a third
// replica's snapshot, and fails at the first round their predictions or
// snapshots differ by a bit.
func lockstep(t *testing.T, a, b Predictor, other Predictor, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	z := make([]float64, a.Dim())
	for round := 0; round < 120; round++ {
		if round == 60 {
			if err := drive(rng, other, 30); err != nil {
				t.Fatal(err)
			}
			state := other.AppendSnapshot(nil)
			if errA, errB := a.Restore(state), b.Restore(state); errA != nil || errB != nil {
				t.Fatalf("%s: Restore: %v, %v", a.Name(), errA, errB)
			}
		}
		k := int64(rng.Intn(5))
		a.StepN(k)
		b.StepN(k)
		a.Step()
		b.Step()
		if rng.Float64() < 0.5 {
			for i := range z {
				z[i] = rng.NormFloat64() * 10
			}
			if errA, errB := a.Correct(z), b.Correct(z); (errA == nil) != (errB == nil) {
				t.Fatalf("%s round %d: Correct %v, %v", a.Name(), round, errA, errB)
			}
		}
		if pa, pb := predict(a), predict(b); !sameBits(pa, pb) {
			t.Fatalf("%s round %d: predictions %v, %v", a.Name(), round, pa, pb)
		}
		if sa, sb := a.AppendSnapshot(nil), b.AppendSnapshot(nil); !sameBits(sa, sb) {
			t.Fatalf("%s round %d: snapshots differ", a.Name(), round)
		}
	}
}

// TestCloneIsAFreshBuild is the clone contract for every kind: a clone of
// a built prototype is bit-identical to a fresh Build through Step, StepN,
// Correct, AppendSnapshot and Restore; driving it leaves the prototype's
// snapshot unchanged; and a clone of a driven replica goes on in lock-step
// with it.
func TestCloneIsAFreshBuild(t *testing.T) {
	for i, spec := range cloneSpecs() {
		proto := mustBuild(t, spec)
		want := proto.AppendSnapshot(nil)
		clone, fresh := proto.Clone(), mustBuild(t, spec)
		if clone.Name() != fresh.Name() || clone.Dim() != fresh.Dim() {
			t.Fatalf("clone is %s/%d, a fresh build %s/%d", clone.Name(), clone.Dim(), fresh.Name(), fresh.Dim())
		}
		lockstep(t, clone, fresh, mustBuild(t, spec), int64(i))
		if got := proto.AppendSnapshot(nil); !sameBits(got, want) {
			t.Fatalf("%s: driving a clone moved the prototype", proto.Name())
		}
		again := clone.Clone()
		lockstep(t, again, clone, mustBuild(t, spec), int64(i)+100)
	}
}

// TestClonesShareNoScratch: two clones of one generic-shape prototype,
// each driven on its own goroutine, write nothing they share (make race
// checks this) and stay in lock-step with each other.
func TestClonesShareNoScratch(t *testing.T) {
	spec := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantAcceleration, Q: 0.01, R: 0.5}}
	proto := mustBuild(t, spec)
	clones := []Predictor{proto.Clone(), proto.Clone()}
	var wg sync.WaitGroup
	for _, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := drive(rand.New(rand.NewSource(26)), c, 500); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if a, b := clones[0].AppendSnapshot(nil), clones[1].AppendSnapshot(nil); !sameBits(a, b) {
		t.Fatal("two clones driven alike differ")
	}
	if got := proto.AppendSnapshot(nil); !sameBits(got, mustBuild(t, spec).AppendSnapshot(nil)) {
		t.Fatal("driving the clones moved the prototype")
	}
}
