package kalman

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"kalmanstream/internal/mat"
)

// forceGeneric puts f on the mat path, building the scratch a kernel
// shape never allocates: the control the bit-identity tests compare a
// kernel against. Test-only — nothing outside a test can select a path.
func forceGeneric(f *Filter) {
	f.shape = shapeGeneric
	f.g = newScratch(f)
}

// sameBits fails the test unless the two filters hold bit-equal x and P
// and equal counters, the kernel's H·x (ObservationInto) is bit-equal
// to mat.MulVecTo over the mat path's own headers, and the accessors,
// which build their headers per call, return bit-equal values and equal
// errors.
func sameBits(t *testing.T, where string, kernel, generic *Filter) {
	t.Helper()
	for i := range kernel.blk {
		if math.Float64bits(kernel.blk[i]) != math.Float64bits(generic.blk[i]) {
			t.Fatalf("%s: block[%d] diverged: kernel %x (%g) generic %x (%g)", where, i,
				math.Float64bits(kernel.blk[i]), kernel.blk[i],
				math.Float64bits(generic.blk[i]), generic.blk[i])
		}
	}
	if kernel.Ticks() != generic.Ticks() || kernel.Updates() != generic.Updates() {
		t.Fatalf("%s: counters diverged: kernel %d/%d generic %d/%d", where,
			kernel.Ticks(), kernel.Updates(), generic.Ticks(), generic.Updates())
	}
	got, want := kernel.ObservationInto(0, []float64{math.NaN()}), []float64{math.NaN()}
	mat.MulVecTo(want, &generic.g.hdr[partH], generic.x())
	if math.Float64bits(got[0]) != math.Float64bits(want[0]) {
		t.Fatalf("%s: H·x diverged: kernel %x (%g) MulVecTo %x (%g)", where,
			math.Float64bits(got[0]), got[0], math.Float64bits(want[0]), want[0])
	}
	km, gm := kernel.Model(), generic.Model()
	if km.Name != gm.Name {
		t.Fatalf("%s: Model names diverged: kernel %q generic %q", where, km.Name, gm.Name)
	}
	for _, c := range []struct {
		what   string
		kv, gv []float64
	}{
		{"State", kernel.State(), generic.State()},
		{"Covariance", kernel.Covariance().Raw(), generic.Covariance().Raw()},
		{"Model F", km.F.Raw(), gm.F.Raw()},
		{"Model Q", km.Q.Raw(), gm.Q.Raw()},
		{"Model H", km.H.Raw(), gm.H.Raw()},
		{"Model R", km.R.Raw(), gm.R.Raw()},
		{"ObservationVariance", kernel.ObservationVariance(), generic.ObservationVariance()},
	} {
		sameFloats(t, where+": "+c.what, c.kv, c.gv)
	}
	for _, z := range []float64{0, got[0] + 1} {
		kl, ke := kernel.LogLikelihood([]float64{z})
		gl, ge := generic.LogLikelihood([]float64{z})
		if (ke == nil) != (ge == nil) || (ke != nil && ke.Error() != ge.Error()) {
			t.Fatalf("%s: LogLikelihood errors diverged: kernel %v generic %v", where, ke, ge)
		}
		sameFloats(t, where+": LogLikelihood", []float64{kl}, []float64{gl})
	}
}

// sameFloats fails the test unless a and b agree on every bit.
func sameFloats(t *testing.T, where string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths diverged: %d and %d", where, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: [%d] diverged: %x (%g) and %x (%g)", where, i,
				math.Float64bits(a[i]), a[i], math.Float64bits(b[i]), b[i])
		}
	}
}

// logUniform draws from [1e-9, 1e3), and exactly 0 one time in eight.
func logUniform(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return 0
	}
	return math.Pow(10, -9+12*rng.Float64())
}

// randomP0 draws an initial covariance: zero, the diffuse prior, a random
// symmetric matrix, arbitrary entries (both paths must agree on any input,
// not only on a valid covariance), or — one time in sixteen — entries that
// are or soon become infinite, where MulTo's zero skip and 0 − x decide
// between a number and a NaN.
func randomP0(rng *rand.Rand, n int) *mat.Matrix {
	p := mat.New(n, n)
	switch rng.Intn(16) % 5 {
	case 0:
	case 1:
		return InitialCovariance(n, 1e6)
	case 2:
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64() * 10
				p.Set(i, j, v)
				p.Set(j, i, v)
			}
		}
	case 3:
		for i := range p.Raw() {
			p.Raw()[i] = rng.NormFloat64() * 100
		}
	default:
		for i := range p.Raw() {
			p.Raw()[i] = []float64{1e200, -1e200, math.Inf(1), 1, 0}[rng.Intn(5)]
		}
	}
	return p
}

// TestKernelBitIdentical is the gate that lets a kernel exist: for every
// shape that has one, a kernel filter and a control forced onto the mat
// path run the same random interleaving of Predict, PredictN, Update,
// SetNoise and snapshot/restore — over models that include q = 0, r = 0,
// P₀ = 0, x₀ = −0 and observations of 0 and −0 — and must agree on every
// bit of the block (F, Q, H, R, P, x), on H·x (ObservationInto against
// mat.MulVecTo), on the counters and on every error. Some updates are
// refused, so H·x is also compared after a refusal.
func TestKernelBitIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(16))
	refused := 0
	for trial := 0; trial < 640; trial++ {
		var model *Model
		var want shape
		q, r := logUniform(rng), logUniform(rng)
		if trial%2 == 0 {
			dt := []float64{1, 1, 0.5, 0.1, 2, rng.Float64() * 2}[rng.Intn(6)]
			model, want = ConstantVelocity(dt, q, r), shape2x1
		} else {
			model, want = RandomWalk(q, r), shape1x1
		}
		n := model.StateDim()
		x0 := make([]float64, n)
		if rng.Intn(2) == 0 {
			for i := range x0 {
				x0[i] = rng.NormFloat64() * 50
			}
		} else if trial%3 == 0 {
			// −0 survives until the first time update: H·x must sum it
			// from a +0 start, as MulVecTo does.
			for i := range x0 {
				x0[i] = negZero
			}
		}
		p0 := randomP0(rng, n)
		kernel, generic := MustFilter(model, x0, p0), MustFilter(model, x0, p0)
		if kernel.shape != want || kernel.g != nil {
			t.Fatalf("trial %d: %s filter has shape %d, scratch %v", trial, model.Name, kernel.shape, kernel.g != nil)
		}
		forceGeneric(generic)
		sameBits(t, model.Name, kernel, generic)

		truth := rng.NormFloat64() * 10
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 8:
				kernel.PredictN(1)
				generic.PredictN(1)
			case op < 10:
				k := []int64{0, 1, 2, 7, 200}[rng.Intn(5)]
				kernel.PredictN(k)
				for i := int64(0); i < k; i++ {
					generic.PredictN(1)
				}
			case op < 18:
				truth += rng.NormFloat64()
				z := []float64{truth, truth, truth, 0, negZero, -truth * 1e6}[rng.Intn(6)]
				ke, ge := kernel.Update([]float64{z}), generic.Update([]float64{z})
				if (ke == nil) != (ge == nil) || (ke != nil && ke.Error() != ge.Error()) {
					t.Fatalf("trial %d step %d: update errors diverged: kernel %v generic %v", trial, step, ke, ge)
				}
				if ke != nil {
					refused++
				}
			case op < 19:
				// A resync: each side restores the other's snapshot.
				ks, gs := kernel.AppendSnapshot(nil), generic.AppendSnapshot(nil)
				if kernel.Restore(gs) != nil || generic.Restore(ks) != nil {
					t.Fatalf("trial %d step %d: restore failed", trial, step)
				}
			default:
				// The adaptive layer's lever: new noise on both.
				km := kernel.Model()
				nq := mat.Scale(0.5+rng.Float64(), km.Q)
				nr := mat.Scale(0.5+rng.Float64(), km.R)
				if kernel.SetNoise(nq, nr) != nil || generic.SetNoise(nq, nr) != nil {
					t.Fatalf("trial %d step %d: SetNoise failed", trial, step)
				}
			}
			sameBits(t, model.Name, kernel, generic)
		}
	}
	if refused == 0 {
		t.Fatal("no update was refused: the seeded states never reach the singular path")
	}
}

// TestKernelSingularMatchesGeneric pins the refusal: with Q = R = 0 and
// P₀ = 0 the innovation covariance is exactly 0, and a kernel must return
// the mat path's error and leave the same state behind — nothing touched.
func TestKernelSingularMatchesGeneric(t *testing.T) {
	for _, model := range []*Model{RandomWalk(0, 0), ConstantVelocity(1, 0, 0)} {
		n := model.StateDim()
		x0 := make([]float64, n)
		x0[0] = 3
		kernel := MustFilter(model, x0, mat.New(n, n))
		generic := MustFilter(model, x0, mat.New(n, n))
		forceGeneric(generic)
		for i := 0; i < 3; i++ {
			kernel.PredictN(1)
			generic.PredictN(1)
			ke, ge := kernel.Update([]float64{1}), generic.Update([]float64{1})
			if ke == nil || ge == nil || ke.Error() != ge.Error() {
				t.Fatalf("%s: want the same singular error, got kernel %v generic %v", model.Name, ke, ge)
			}
			sameBits(t, model.Name, kernel, generic)
		}
		if kernel.Updates() != 0 || kernel.State()[0] != 3 {
			t.Fatalf("%s: a refused update changed the filter: updates %d x %v", model.Name, kernel.Updates(), kernel.State())
		}
	}
}

// TestKernelShapesOwnNoScratch pins the allocation shape: a filter with a
// kernel is the struct plus one block, and the mat-path scratch exists
// only for shapes without one.
func TestKernelShapesOwnNoScratch(t *testing.T) {
	for _, tc := range []struct {
		model  *Model
		kernel bool
	}{
		{RandomWalk(1, 1), true},
		{ConstantVelocity(1, 1, 1), true},
		{ConstantAcceleration(1, 1, 1), false},
		{ConstantVelocity2D(1, 1, 1), false},
		{RandomWalkND(2, 1, 1), false},
	} {
		n := tc.model.StateDim()
		x0, p0 := make([]float64, n), InitialCovariance(n, 1)
		f := MustFilter(tc.model, x0, p0)
		if (f.g == nil) != tc.kernel {
			t.Errorf("%s: scratch allocated = %v, want %v", tc.model.Name, f.g != nil, !tc.kernel)
		}
		if tc.kernel {
			if got := testing.AllocsPerRun(50, func() { MustFilter(tc.model, x0, p0) }); got > 2 {
				t.Errorf("%s: NewFilter allocates %.0f objects, want ≤ 2 (struct + block)", tc.model.Name, got)
			}
		}
	}
}

// TestFilterStaysCompact pins the struct a kernel shape owns beside its
// block: the block, the dimensions, the counters, the scratch pointer and
// the model's name — no matrix header (336 bytes when it held five).
func TestFilterStaysCompact(t *testing.T) {
	if got := unsafe.Sizeof(Filter{}); got > 96 {
		t.Fatalf("Filter is %d bytes, want ≤ 96", got)
	}
}
