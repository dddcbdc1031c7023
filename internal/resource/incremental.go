package resource

// The model-based policies, incrementally. A closed-form solver
// recomputes every stream's transcendental terms (cube roots, fractional
// powers, square roots) on every round, even though between consecutive
// rounds most cost estimates barely move — and under heavy smoothing
// many do not move at all. WaterFilling and FairShare cache each stream's
// terms keyed on the exact input values and recompute only the streams
// whose statistics changed; the budget accumulator Σ cᵢ^⅓·wᵢ^⅔ is then
// re-summed from the cached terms in the same index order as the
// closed-form loop.
//
// Byte-identity argument: a cached term is reused only when its inputs
// compare == to the previous round's, and Go's math.Cbrt/Pow/Sqrt are
// deterministic pure functions — so a reused term is bit-for-bit the
// value the closed form would have produced. Because the final
// summation runs over all terms in index order (identical association
// order to the closed-form loop), the accumulator, the scale factor,
// and every clamped δ are bit-identical too. incremental_test.go holds
// them to the closed forms in resourcetest round by round, and
// internal/core's budget_test.go across the full E8 sweep.

import "math"

// WaterFilling minimizes the weighted precision loss Σ wᵢδᵢ subject to
// Σ cᵢ/δᵢ² ≤ B. The stationarity condition gives δᵢ = s·(cᵢ/wᵢ)^⅓ with
// the scale s chosen to exhaust the budget. The zero value is an empty
// cache; not safe for concurrent use — a coordinator owns one instance.
type WaterFilling struct {
	cost   []float64 // cached CostEstimate per index
	weight []float64 // cached normalized weight per index
	term   []float64 // cᵢ^⅓·wᵢ^⅔
	ratio  []float64 // (cᵢ/wᵢ)^⅓

	recomputed int64
	reused     int64
}

// Name implements Allocator.
func (*WaterFilling) Name() string { return "water-filling" }

// Allocate implements Allocator.
func (a *WaterFilling) Allocate(out []float64, windows []StreamWindow, budgetPerTick float64) []float64 {
	if len(windows) == 0 || budgetPerTick <= 0 {
		return zeroFill(out)
	}
	// Σ cᵢ/(s²(cᵢ/wᵢ)^⅔) = B  ⇒  s = √(Σ cᵢ^⅓·wᵢ^⅔ / B).
	resetAll := len(a.cost) != len(windows)
	if resetAll {
		a.cost = make([]float64, len(windows))
		a.weight = make([]float64, len(windows))
		a.term = make([]float64, len(windows))
		a.ratio = make([]float64, len(windows))
	}
	var acc float64
	for i, w := range windows {
		weight := w.Weight
		if weight <= 0 {
			weight = 1
		}
		if resetAll || w.CostEstimate != a.cost[i] || weight != a.weight[i] {
			a.cost[i] = w.CostEstimate
			a.weight[i] = weight
			a.term[i] = math.Cbrt(w.CostEstimate) * math.Pow(weight, 2.0/3.0)
			a.ratio[i] = math.Cbrt(w.CostEstimate / weight)
			a.recomputed++
		} else {
			a.reused++
		}
		acc += a.term[i]
	}
	s := math.Sqrt(acc / budgetPerTick)
	for i, w := range windows {
		out[i] = w.Clamp(s * a.ratio[i])
	}
	return out
}

// TermStats implements TermStats.
func (a *WaterFilling) TermStats() (recomputed, reused int64) {
	return a.recomputed, a.reused
}

// FairShare gives each stream an equal message allowance B/n and sizes
// δᵢ to it: δᵢ = √(n·cᵢ/B). Volatile streams get loose bounds; calm
// streams get tight ones. The zero value is an empty cache; not safe for
// concurrent use — a coordinator owns one instance.
type FairShare struct {
	cost []float64 // cached CostEstimate per index
	root []float64 // √(cᵢ/share)
	// share the cache was computed under; it moves only when the stream
	// count or the budget changes, which invalidates every entry.
	share float64

	recomputed int64
	reused     int64
}

// Name implements Allocator.
func (*FairShare) Name() string { return "fair-share" }

// Allocate implements Allocator.
func (a *FairShare) Allocate(out []float64, windows []StreamWindow, budgetPerTick float64) []float64 {
	if len(windows) == 0 || budgetPerTick <= 0 {
		return zeroFill(out)
	}
	share := budgetPerTick / float64(len(windows))
	resetAll := len(a.cost) != len(windows) || share != a.share
	if len(a.cost) != len(windows) {
		a.cost = make([]float64, len(windows))
		a.root = make([]float64, len(windows))
	}
	a.share = share
	for i, w := range windows {
		if resetAll || w.CostEstimate != a.cost[i] {
			a.cost[i] = w.CostEstimate
			a.root[i] = math.Sqrt(w.CostEstimate / share)
			a.recomputed++
		} else {
			a.reused++
		}
		out[i] = w.Clamp(a.root[i])
	}
	return out
}

// TermStats implements TermStats.
func (a *FairShare) TermStats() (recomputed, reused int64) {
	return a.recomputed, a.reused
}
