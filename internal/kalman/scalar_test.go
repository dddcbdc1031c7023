package kalman

import (
	"math"
	"math/rand"
	"testing"
)

// TestScalarFastPathBitIdentical locks in the claim the scalar fast path
// makes: for 1×1 models, predictScalar/updateScalar produce bit-for-bit
// the state, covariance, and observation the general matrix path does.
// Two filters run the same long random measurement sequence — one with
// the fast path, one forced onto the matrix path — and every float is
// compared via Float64bits.
func TestScalarFastPathBitIdentical(t *testing.T) {
	for _, tc := range []struct{ q, r float64 }{
		{1e-4, 0.01},
		{0.25, 4},
		{1e-8, 1e-6},
		{100, 0.5},
	} {
		fast := newRWFilter(t, tc.q, tc.r)
		slow := newRWFilter(t, tc.q, tc.r)
		if fast.shape != shape1x1 {
			t.Fatal("1×1 filter did not select the scalar fast path")
		}
		forceGeneric(slow)

		rng := rand.New(rand.NewSource(7))
		x := 0.0
		for i := 0; i < 5000; i++ {
			x += rng.NormFloat64()
			z := []float64{x + rng.NormFloat64()*0.1}
			fast.PredictN(1)
			slow.PredictN(1)
			if err := fast.Update(z); err != nil {
				t.Fatalf("step %d: fast update: %v", i, err)
			}
			if err := slow.Update(z); err != nil {
				t.Fatalf("step %d: slow update: %v", i, err)
			}
			fx, sx := fast.State()[0], slow.State()[0]
			if math.Float64bits(fx) != math.Float64bits(sx) {
				t.Fatalf("step %d: state diverged: fast %x slow %x", i,
					math.Float64bits(fx), math.Float64bits(sx))
			}
			fp, sp := fast.Covariance().Raw()[0], slow.Covariance().Raw()[0]
			if math.Float64bits(fp) != math.Float64bits(sp) {
				t.Fatalf("step %d: covariance diverged: fast %x slow %x", i,
					math.Float64bits(fp), math.Float64bits(sp))
			}
			fo, so := observation(fast)[0], observation(slow)[0]
			if math.Float64bits(fo) != math.Float64bits(so) {
				t.Fatalf("step %d: observation diverged: fast %x slow %x", i,
					math.Float64bits(fo), math.Float64bits(so))
			}
		}
	}
}

// TestScalarSingularMatchesGeneral checks the fast path rejects a
// singular innovation covariance exactly like the matrix path (same
// sentinel in the error chain).
func TestScalarSingularMatchesGeneral(t *testing.T) {
	fast := newRWFilter(t, 0, 0) // Q=R=0 with P0 collapsing to 0 → S singular
	slow := newRWFilter(t, 0, 0)
	forceGeneric(slow)
	// Drive covariance to zero: with Q=0, R=0 the first update collapses P.
	var fastErr, slowErr error
	for i := 0; i < 10 && fastErr == nil && slowErr == nil; i++ {
		fast.PredictN(1)
		slow.PredictN(1)
		fastErr = fast.Update([]float64{1})
		slowErr = slow.Update([]float64{1})
	}
	if (fastErr == nil) != (slowErr == nil) {
		t.Fatalf("singularity verdicts diverged: fast=%v slow=%v", fastErr, slowErr)
	}
	if fastErr != nil && fastErr.Error() != slowErr.Error() {
		t.Fatalf("singularity errors differ: fast=%q slow=%q", fastErr, slowErr)
	}
}
