package predictor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPredictIntoWritesOnlyDst: for every kind, PredictInto's answer does
// not depend on what dst held, and the call writes nothing but dst — the
// replica's snapshot is unchanged, and two goroutines predicting from one
// replica into their own buffers share no write (make race checks this).
func TestPredictIntoWritesOnlyDst(t *testing.T) {
	for _, spec := range allSpecs() {
		p := mustBuild(t, spec)
		if err := drive(rand.New(rand.NewSource(7)), p, 60); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		before := p.AppendSnapshot(nil)
		want := p.PredictInto(make([]float64, p.Dim()))
		poisoned := make([]float64, p.Dim())
		for k := range poisoned {
			poisoned[k] = math.NaN()
		}
		if got := p.PredictInto(poisoned); !sameBits(got, want) {
			t.Fatalf("%s: PredictInto over NaN = %v, over zeros %v", p.Name(), got, want)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, p.Dim())
				for i := 0; i < 200; i++ {
					if got := p.PredictInto(dst); !sameBits(got, want) {
						t.Errorf("%s: concurrent PredictInto = %v, want %v", p.Name(), got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		if after := p.AppendSnapshot(nil); !sameBits(after, before) {
			t.Fatalf("%s: PredictInto moved the replica", p.Name())
		}
	}
}

// fuzzSpecs are the kinds FuzzPredictorRestore restores into: every
// built-in, plus an adaptive filter whose window of 4 wraps many times in
// one run.
func fuzzSpecs() []Spec {
	return append(allSpecs(), Spec{Kind: KindKalman, Adaptive: true, AdaptiveWindow: 4,
		Model: ModelSpec{Kind: ModelRandomWalk, Q: 0.1, R: 0.5}})
}

func floatBytes(v []float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzPredictorRestore feeds arbitrary finite floats — what a resync or a
// checkpoint may carry past the server's finiteness check — into every
// kind's Restore. A refused snapshot ends the case; an accepted one must
// survive 64 rounds of StepN, PredictInto, Correct and AppendSnapshot
// without a panic (Correct may refuse: the property is that nothing
// crashes), and a clone of the restored replica, driven alike, must end
// bit-identical to it.
func FuzzPredictorRestore(f *testing.F) {
	specs := fuzzSpecs()
	for i, spec := range specs {
		p, err := spec.Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), floatBytes(p.AppendSnapshot(nil)))
	}
	// The two window shapes the adaptive Restore once accepted: the ring
	// index at the window's end, and a filled ring with no entries. Layout:
	// x, P, Q, R, qScale, nisSum, nisCount, steps, next, filled, count, then
	// count × (innovation, H·P·Hᵀ).
	adaptive := uint8(len(specs) - 1)
	f.Add(adaptive, floatBytes([]float64{0.5, 1, 0.1, 0.5, 1, 0, 0, 0, 4, 0, 4, 0.25, 1, 0.25, 1, 0.25, 1, 0.25, 1}))
	f.Add(adaptive, floatBytes([]float64{0.5, 1, 0.1, 0.5, 1, 0, 0, 0, 0, 1, 0}))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		p := mustBuild(t, specs[int(kind)%len(specs)])
		state := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			state = append(state, v)
		}
		if p.Restore(state) != nil {
			return
		}
		c := p.Clone()
		rng := rand.New(rand.NewSource(int64(len(state))))
		dst, z := make([]float64, p.Dim()), make([]float64, p.Dim())
		var snap []float64
		for round := 0; round < 64; round++ {
			k := int64(rng.Intn(4))
			p.StepN(k)
			c.StepN(k)
			p.PredictInto(dst)
			for k := range z {
				z[k] = rng.NormFloat64() * 10
			}
			_, _ = p.Correct(z), c.Correct(z)
			snap = p.AppendSnapshot(snap[:0])
		}
		if !sameBits(c.AppendSnapshot(nil), snap) {
			t.Fatal("a clone of the restored replica, driven alike, differs from it")
		}
	})
}
