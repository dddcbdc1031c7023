package predictor

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"kalmanstream/internal/kalman"
)

// kernelSpecs are the replicas whose filter block lies inside the
// predictor's own allocation: the two kernel shapes, one of them adaptive.
var kernelSpecs = map[string]Spec{
	"rw1":          {Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalk, Q: 0.25, R: 0.0025}},
	"cv2":          {Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity, Q: 0.05, R: 0.1}},
	"adaptive-rw1": {Kind: KindKalman, Model: ModelSpec{Kind: ModelRandomWalk, Q: 0.25, R: 0.0025}, Adaptive: true, AdaptiveWindow: 8},
}

// twin is a replica's control built straight on the kalman layer: a
// kalman.NewFilter whose block is allocated on its own, adaptive when the
// spec is, driven through the calls the predictor maps its own onto.
type twin struct {
	f *kalman.Filter
	a *kalman.Adaptive
}

func newTwin(t *testing.T, s Spec) twin {
	t.Helper()
	model, err := s.Model.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := model.StateDim()
	f, err := kalman.NewFilter(model, make([]float64, n), kalman.InitialCovariance(n, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	tw := twin{f: f}
	if s.Adaptive {
		if tw.a, err = kalman.NewAdaptive(f, kalman.AdaptiveConfig{Window: s.AdaptiveWindow, AdaptR: true, AdaptQ: true}); err != nil {
			t.Fatal(err)
		}
	}
	return tw
}

func (tw twin) correct(z []float64) error {
	if tw.a != nil {
		return tw.a.Update(z)
	}
	return tw.f.Update(z)
}

func (tw twin) snapshot() []float64 {
	if tw.a != nil {
		return tw.a.AppendSnapshot(nil)
	}
	return tw.f.AppendSnapshot(nil)
}

func (tw twin) restore(state []float64) error {
	if tw.a != nil {
		return tw.a.Restore(state)
	}
	return tw.f.Restore(state)
}

// TestInlineBlockMatchesSeparateFilter: a replica whose block lies inside
// its own allocation stays bit-identical — prediction and whole snapshot —
// to a twin whose block is allocated separately, through Step, StepN,
// Correct, and a Restore from a third replica's snapshot halfway.
func TestInlineBlockMatchesSeparateFilter(t *testing.T) {
	for name, spec := range kernelSpecs {
		rng := rand.New(rand.NewSource(47))
		p, other, tw := mustBuild(t, spec), mustBuild(t, spec), newTwin(t, spec)
		z := make([]float64, spec.ObsDim())
		for round := 0; round < 120; round++ {
			if round == 60 {
				state := other.AppendSnapshot(nil)
				if err := p.Restore(state); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := tw.restore(state); err != nil {
					t.Fatalf("%s: twin: %v", name, err)
				}
			}
			if k := []int64{1, 0, 3, 40}[round%4]; k == 1 {
				p.Step()
				other.Step()
				tw.f.PredictN(1)
			} else {
				p.StepN(k)
				other.StepN(k)
				tw.f.PredictN(k)
			}
			for i := range z {
				z[i] = rng.NormFloat64()*3 + float64(round)
			}
			if rng.Intn(3) > 0 {
				if err := p.Correct(z); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := tw.correct(z); err != nil {
					t.Fatalf("%s: twin: %v", name, err)
				}
				z[0]++
				if err := other.Correct(z); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			got := p.PredictInto(0, make([]float64, len(z)))
			want := tw.f.ObservationInto(0, make([]float64, len(z)))
			if !sameBits(got, want) {
				t.Fatalf("%s round %d: prediction %v, twin %v", name, round, got, want)
			}
			if a, b := p.AppendSnapshot(nil), tw.snapshot(); !sameBits(a, b) {
				t.Fatalf("%s round %d: snapshot %v, twin %v", name, round, a, b)
			}
		}
	}
}

// TestKernelShapeIsOneObject: a kernel shape's block starts where its
// predictor ends, inside the one allocation Build makes for both; a
// generic shape's block is an allocation of its own.
func TestKernelShapeIsOneObject(t *testing.T) {
	// block returns the predictor's address and its filter's block's.
	block := func(p Predictor) (k, blk uintptr) {
		f := p.(*Kalman).Filter()
		return uintptr(unsafe.Pointer(p.(*Kalman))), reflect.ValueOf(f).Elem().FieldByName("blk").Pointer()
	}
	for name, spec := range kernelSpecs {
		k, blk := block(mustBuild(t, spec))
		if want := k + unsafe.Sizeof(Kalman{}); blk != want {
			t.Errorf("%s: block at %#x, want %#x, right behind the predictor at %#x", name, blk, want, k)
		}
	}
	generic := Spec{Kind: KindKalman, Model: ModelSpec{Kind: ModelConstantVelocity2D, Q: 0.05, R: 0.5}}
	if k, blk := block(mustBuild(t, generic)); blk == k+unsafe.Sizeof(Kalman{}) {
		t.Errorf("cv2d: block at %#x lies behind the predictor at %#x", blk, k)
	}
}
