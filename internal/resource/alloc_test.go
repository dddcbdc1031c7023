package resource

import (
	"math"
	"testing"
)

func windows3() []StreamWindow {
	// Three streams with cost estimates 1, 4, 16 (increasingly volatile).
	return []StreamWindow{
		{ID: "calm", Delta: 1, Msgs: 10, Ticks: 100, Weight: 1, CostEstimate: 1},
		{ID: "mid", Delta: 1, Msgs: 40, Ticks: 100, Weight: 1, CostEstimate: 4},
		{ID: "wild", Delta: 1, Msgs: 160, Ticks: 100, Weight: 1, CostEstimate: 16},
	}
}

// allocate runs one round of a into a fresh buffer.
func allocate(a Allocator, ws []StreamWindow, budget float64) []float64 {
	return a.Allocate(make([]float64, len(ws)), ws, budget)
}

// predictedRate computes Σ cᵢ/δᵢ² for an allocation.
func predictedRate(ws []StreamWindow, deltas []float64) float64 {
	var r float64
	for i, w := range ws {
		r += w.CostEstimate / (deltas[i] * deltas[i])
	}
	return r
}

func TestUniformMeetsBudgetUnderModel(t *testing.T) {
	ws := windows3()
	budget := 0.5
	deltas := allocate(Uniform{}, ws, budget)
	for i := 1; i < len(deltas); i++ {
		if deltas[i] != deltas[0] {
			t.Fatalf("uniform produced non-uniform deltas %v", deltas)
		}
	}
	if r := predictedRate(ws, deltas); math.Abs(r-budget) > 1e-9 {
		t.Fatalf("predicted rate %v, want %v", r, budget)
	}
}

func TestFairShareEqualizesRates(t *testing.T) {
	ws := windows3()
	budget := 0.6
	deltas := allocate(&FairShare{}, ws, budget)
	share := budget / 3
	for i, w := range ws {
		r := w.CostEstimate / (deltas[i] * deltas[i])
		if math.Abs(r-share) > 1e-9 {
			t.Fatalf("stream %s predicted rate %v, want share %v", w.ID, r, share)
		}
	}
	// More volatile streams must get looser bounds.
	if !(deltas[0] < deltas[1] && deltas[1] < deltas[2]) {
		t.Fatalf("fair-share ordering wrong: %v", deltas)
	}
}

func TestWaterFillingMeetsBudgetAndBeatsUniformOnWeightedLoss(t *testing.T) {
	ws := windows3()
	budget := 0.5
	wf := allocate(&WaterFilling{}, ws, budget)
	if r := predictedRate(ws, wf); math.Abs(r-budget) > 1e-9 {
		t.Fatalf("water-filling predicted rate %v, want %v", r, budget)
	}
	uni := allocate(Uniform{}, ws, budget)
	loss := func(deltas []float64) float64 {
		var l float64
		for i, w := range ws {
			l += w.Weight * deltas[i]
		}
		return l
	}
	if loss(wf) > loss(uni)+1e-9 {
		t.Fatalf("water-filling loss %v worse than uniform %v", loss(wf), loss(uni))
	}
}

func TestWaterFillingRespectsWeights(t *testing.T) {
	ws := []StreamWindow{
		{ID: "vip", CostEstimate: 4, Weight: 100},
		{ID: "bulk", CostEstimate: 4, Weight: 1},
	}
	deltas := allocate(&WaterFilling{}, ws, 0.5)
	if deltas[0] >= deltas[1] {
		t.Fatalf("high-weight stream got looser bound: %v", deltas)
	}
}

func TestAIMDDirection(t *testing.T) {
	// Budget 0.3/tick over 3 streams ⇒ share 0.1. Stream rates: 0.09
	// (under), 0.4 (over), 0.05 (under).
	ws := []StreamWindow{
		{ID: "under1", Delta: 2, Msgs: 9, Ticks: 100},
		{ID: "over", Delta: 2, Msgs: 40, Ticks: 100},
		{ID: "under2", Delta: 2, Msgs: 5, Ticks: 100},
	}
	deltas := allocate(AIMD{}, ws, 0.3)
	if deltas[1] <= 2 {
		t.Fatalf("overspender's δ not increased: %v", deltas[1])
	}
	if deltas[0] >= 2 || deltas[2] >= 2 {
		t.Fatalf("underspenders' δ not decreased: %v", deltas)
	}
}

func TestAllocatorsClampAndHandleEmpty(t *testing.T) {
	allocs := []Allocator{Uniform{}, &FairShare{}, &WaterFilling{}, AIMD{}}
	for _, a := range allocs {
		if got := allocate(a, nil, 1); len(got) != 0 {
			t.Errorf("%s: empty windows produced %v", a.Name(), got)
		}
		ws := []StreamWindow{{ID: "x", Delta: 1, Msgs: 100, Ticks: 100,
			CostEstimate: 100, MinDelta: 0.5, MaxDelta: 2}}
		got := allocate(a, ws, 0.0001) // starvation budget wants huge δ
		if got[0] > 2 {
			t.Errorf("%s: MaxDelta not respected: %v", a.Name(), got[0])
		}
		got = allocate(a, ws, 1e9) // lavish budget wants tiny δ
		if got[0] < 0.5 {
			t.Errorf("%s: MinDelta not respected: %v", a.Name(), got[0])
		}
		if got := allocate(a, ws, 0); got[0] != 0 {
			t.Errorf("%s: zero budget produced %v", a.Name(), got)
		}
	}
}

func TestEstimateCost(t *testing.T) {
	w := StreamWindow{Delta: 2, Msgs: 25, Ticks: 100}
	// rate 0.25, δ² = 4 ⇒ sample c = 1.
	if got := EstimateCost(0, w, 0.5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("first estimate %v, want 1", got)
	}
	// Smoothing blends: prev 3, sample 1, α=0.5 ⇒ 2.
	if got := EstimateCost(3, w, 0.5); math.Abs(got-2) > 1e-12 {
		t.Fatalf("smoothed estimate %v, want 2", got)
	}
	// Zero messages floors at half a message per window.
	wz := StreamWindow{Delta: 2, Msgs: 0, Ticks: 100}
	want := (0.5 / 100.0) * 4
	if got := EstimateCost(0, wz, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("floored estimate %v, want %v", got, want)
	}
	// Degenerate windows leave the estimate untouched.
	if got := EstimateCost(7, StreamWindow{Delta: 0, Msgs: 1, Ticks: 10}, 0.5); got != 7 {
		t.Fatalf("degenerate window changed estimate to %v", got)
	}
	if got := EstimateCost(7, StreamWindow{Delta: 1, Msgs: 1, Ticks: 0}, 0.5); got != 7 {
		t.Fatalf("zero-tick window changed estimate to %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "fair-share", "water-filling", "aimd"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
		// The model-based policies are their caching allocators, so the
		// coordinator's terms counters are live wherever a budget runs.
		if _, caches := a.(TermStats); caches != (name == "fair-share" || name == "water-filling") {
			t.Fatalf("ByName(%q) caches terms: %v", name, caches)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown allocator accepted")
	}
}
