package resource_test

import (
	"math"
	"math/rand"
	"testing"

	"kalmanstream/internal/resource"
	"kalmanstream/internal/resource/resourcetest"
)

// TestIncrementalMatchesFromScratch drives the caching allocators
// through many rounds of randomly evolving windows — per-round partial
// mutations, stream-count changes, budget changes — and asserts every
// allocation is bit-for-bit identical to the closed-form oracle on the
// same inputs. This is the property the caches rely on: a reused term
// must be indistinguishable from a recomputed one.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scratch resource.Allocator
		inc     resource.Allocator
	}{
		{"water-filling", resourcetest.WaterFilling{}, &resource.WaterFilling{}},
		{"fair-share", resourcetest.FairShare{}, &resource.FairShare{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			newWindow := func() resource.StreamWindow {
				return resource.StreamWindow{
					CostEstimate: math.Exp(rng.NormFloat64() * 2),
					Weight:       math.Exp(rng.NormFloat64()),
					MinDelta:     rng.Float64() * 0.01,
					MaxDelta:     1 + rng.Float64()*100,
				}
			}
			windows := make([]resource.StreamWindow, 17)
			for i := range windows {
				windows[i] = newWindow()
			}
			budget := 2.0
			out := make([]float64, 0, 64)
			for round := 0; round < 400; round++ {
				// Mutate ~30% of windows; leave the rest untouched so the
				// cache actually gets exercised.
				for i := range windows {
					if rng.Float64() < 0.3 {
						windows[i].CostEstimate = math.Exp(rng.NormFloat64() * 2)
					}
					if rng.Float64() < 0.05 {
						windows[i].Weight = math.Exp(rng.NormFloat64())
					}
				}
				// Occasionally change the stream count (forces resetAll) or
				// the budget (invalidates FairShare's share-keyed cache).
				switch {
				case round%37 == 36:
					windows = append(windows, newWindow())
				case round%53 == 52 && len(windows) > 2:
					windows = windows[:len(windows)-1]
				case round%29 == 28:
					budget = math.Exp(rng.NormFloat64())
				}
				want := tc.scratch.Allocate(make([]float64, len(windows)), windows, budget)
				if cap(out) < len(windows) {
					out = make([]float64, len(windows))
				}
				got := tc.inc.Allocate(out[:len(windows)], windows, budget)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("round %d stream %d: incremental %x != from-scratch %x",
							round, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
			recomputed, reused := tc.inc.(resource.TermStats).TermStats()
			if reused == 0 {
				t.Fatal("cache was never hit — incremental path not exercised")
			}
			if recomputed == 0 {
				t.Fatal("nothing was ever recomputed — mutations not exercised")
			}
			t.Logf("%s: recomputed %d, reused %d (%.0f%% hit rate)",
				tc.name, recomputed, reused,
				100*float64(reused)/float64(recomputed+reused))
		})
	}
}

// TestIncrementalZeroBudgetAndEmpty pins the degenerate paths: both
// caching allocators must zero a dirty scratch buffer exactly like the
// closed forms do.
func TestIncrementalZeroBudgetAndEmpty(t *testing.T) {
	for _, a := range []resource.Allocator{&resource.WaterFilling{}, &resource.FairShare{}} {
		dirty := []float64{3, 7}
		got := a.Allocate(dirty, []resource.StreamWindow{{CostEstimate: 1}, {CostEstimate: 2}}, 0)
		for i, v := range got {
			if v != 0 {
				t.Fatalf("%T: zero budget left out[%d]=%g", a, i, v)
			}
		}
		if res := a.Allocate(dirty[:0], nil, 5); len(res) != 0 {
			t.Fatalf("%T: empty windows returned %d deltas", a, len(res))
		}
	}
}
