package predictor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kalmanstream/internal/mat"
)

// drive exercises a predictor with a random step/correct schedule.
func drive(rng *rand.Rand, p Predictor, steps int) error {
	for i := 0; i < steps; i++ {
		p.Step()
		if rng.Float64() < 0.3 {
			z := make([]float64, p.Dim())
			for j := range z {
				z[j] = rng.NormFloat64() * 10
			}
			if err := p.Correct(z); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestPropSnapshotRestoreResynchronizes is the resync protocol's core
// property: for every predictor kind, restoring B from A's snapshot makes
// the two replicas behave identically from then on — no matter how far
// they had diverged.
func TestPropSnapshotRestoreResynchronizes(t *testing.T) {
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
		// Diverge them: different histories.
		if err := drive(rng, a, 100); err != nil {
			return false
		}
		if err := drive(rng, b, 37); err != nil {
			return false
		}
		// Resync b from a.
		snap := a.AppendSnapshot(nil)
		if err := b.Restore(snap); err != nil {
			return false
		}
		if !mat.VecEqualApprox(predict(a), predict(b), 0) {
			return false
		}
		// From now on, identical behaviour under a shared schedule.
		for i := 0; i < 150; i++ {
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

func TestRestoreRejectsWrongLength(t *testing.T) {
	for _, spec := range allSpecs() {
		p, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		snap := p.AppendSnapshot(nil)
		if err := p.Restore(snap[:len(snap)-1]); err == nil {
			t.Errorf("%s: truncated snapshot accepted", p.Name())
		}
		if err := p.Restore(append(snap, 1)); err == nil {
			t.Errorf("%s: oversized snapshot accepted", p.Name())
		}
	}
}

func TestSnapshotIsolatedFromPredictor(t *testing.T) {
	p := NewStatic(1)
	if err := p.Correct([]float64{5}); err != nil {
		t.Fatal(err)
	}
	snap := p.AppendSnapshot(nil)
	snap[0] = 999
	if predict(p)[0] != 5 {
		t.Fatal("snapshot aliases predictor state")
	}
}

func TestBankRestoreRejectsBadWeights(t *testing.T) {
	spec := Spec{Kind: KindKalmanBank, Models: []ModelSpec{
		{Kind: ModelRandomWalk, Q: 0.5, R: 0.1},
		{Kind: ModelConstantVelocity, Q: 0.05, R: 0.1},
	}}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := p.AppendSnapshot(nil)
	snap[0], snap[1] = 0.9, 0.9 // weights no longer sum to 1
	if err := p.Restore(snap); err == nil {
		t.Fatal("invalid bank weights accepted")
	}
	snap[0], snap[1] = -0.5, 1.5
	if err := p.Restore(snap); err == nil {
		t.Fatal("negative bank weight accepted")
	}
}
