// Package resourcetest holds the closed-form solvers of the model-based
// budget policies. Production runs one allocator per policy, and for
// fair-share and water-filling that is resource.FairShare and
// resource.WaterFilling, which cache each stream's terms between rounds.
// The solvers here recompute every term every round: they are the oracles
// those caches are held to, bit for bit. Only tests import this package
// (make lint).
package resourcetest

import (
	"math"

	"kalmanstream/internal/resource"
)

var (
	_ resource.Allocator = FairShare{}
	_ resource.Allocator = WaterFilling{}
)

// FairShare is fair-share in closed form: δᵢ = √(n·cᵢ/B).
type FairShare struct{}

// Name implements resource.Allocator.
func (FairShare) Name() string { return "fair-share" }

// Allocate implements resource.Allocator.
func (FairShare) Allocate(out []float64, windows []resource.StreamWindow, budgetPerTick float64) []float64 {
	if len(windows) == 0 || budgetPerTick <= 0 {
		clear(out)
		return out
	}
	share := budgetPerTick / float64(len(windows))
	for i, w := range windows {
		out[i] = w.Clamp(math.Sqrt(w.CostEstimate / share))
	}
	return out
}

// WaterFilling is water-filling in closed form: δᵢ = s·(cᵢ/wᵢ)^⅓ with
// s = √(Σ cᵢ^⅓·wᵢ^⅔ / B).
type WaterFilling struct{}

// Name implements resource.Allocator.
func (WaterFilling) Name() string { return "water-filling" }

// Allocate implements resource.Allocator.
func (WaterFilling) Allocate(out []float64, windows []resource.StreamWindow, budgetPerTick float64) []float64 {
	if len(windows) == 0 || budgetPerTick <= 0 {
		clear(out)
		return out
	}
	var acc float64
	for _, w := range windows {
		acc += math.Cbrt(w.CostEstimate) * math.Pow(weight(w), 2.0/3.0)
	}
	s := math.Sqrt(acc / budgetPerTick)
	for i, w := range windows {
		out[i] = w.Clamp(s * math.Cbrt(w.CostEstimate/weight(w)))
	}
	return out
}

// weight is the window's weight, 1 when unset.
func weight(w resource.StreamWindow) float64 {
	if w.Weight <= 0 {
		return 1
	}
	return w.Weight
}
