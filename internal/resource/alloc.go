// Package resource implements the precision–resource tradeoff's second
// direction: given a global communication budget (messages per tick across
// all streams), adaptively set each stream's precision bound δᵢ to spend
// the budget where it buys the most precision.
//
// The key empirical regularity the allocators exploit: for a stream with
// per-tick movement scale σᵢ gated at bound δᵢ, the correction rate
// behaves like rᵢ ≈ cᵢ/δᵢ² (threshold-crossing of a diffusion), where cᵢ
// captures the stream's residual unpredictability under its predictor.
// Each allocator estimates cᵢ online from the observed (rate, δ) pairs —
// no access to raw measurements is needed, so allocation runs entirely at
// the server.
//
// One allocator per budget policy:
//
//   - Uniform      — one δ shared by all streams, sized to the budget.
//   - FairShare    — every stream gets an equal slice of the message
//     budget; δᵢ = √(n·cᵢ/B).
//   - WaterFilling — minimizes Σ wᵢδᵢ subject to the budget; Lagrangian
//     optimum δᵢ ∝ (cᵢ/wᵢ)^⅓.
//   - AIMD         — decentralized feedback: multiplicative increase of
//     δᵢ when a stream overspends its share, gentle decrease otherwise.
//
// FairShare and WaterFilling cache each stream's terms between rounds
// (incremental.go); the closed forms they must equal bit for bit are the
// test oracles in internal/resource/resourcetest.
package resource

import (
	"fmt"
	"math"
)

// StreamWindow summarizes one stream's behaviour over the last allocation
// period — everything an allocator is allowed to see.
type StreamWindow struct {
	ID    string
	Delta float64 // δ in force during the window
	Msgs  int64   // corrections sent during the window
	Ticks int64   // window length
	// Weight expresses relative importance; higher weight ⇒ tighter δ
	// under WaterFilling. Must be positive.
	Weight float64
	// MinDelta and MaxDelta clamp the allocation.
	MinDelta, MaxDelta float64
	// CostEstimate is the smoothed cᵢ carried between rounds (maintained
	// by the Coordinator; allocators treat it as the current estimate).
	CostEstimate float64
}

// rate returns the observed messages per tick.
func (w StreamWindow) rate() float64 {
	if w.Ticks == 0 {
		return 0
	}
	return float64(w.Msgs) / float64(w.Ticks)
}

// Clamp bounds delta to [MinDelta, MaxDelta]; a zero bound is no bound.
func (w StreamWindow) Clamp(delta float64) float64 {
	if w.MinDelta > 0 && delta < w.MinDelta {
		delta = w.MinDelta
	}
	if w.MaxDelta > 0 && delta > w.MaxDelta {
		delta = w.MaxDelta
	}
	return delta
}

// Allocator computes new per-stream precision bounds from window
// statistics and a total budget (messages per tick, summed over streams).
// Allocate writes the bounds into out, which has length len(windows) and
// may hold a previous round's values, and returns it — so a steady-state
// reallocation round performs no heap allocation.
type Allocator interface {
	Name() string
	Allocate(out []float64, windows []StreamWindow, budgetPerTick float64) []float64
}

// TermStats is implemented by the allocators that cache per-stream terms;
// it reports how many were recomputed versus served from cache across
// all rounds so far — the coordinator surfaces the split as the
// incremental-skip telemetry counters.
type TermStats interface {
	TermStats() (recomputed, reused int64)
}

var (
	_ TermStats = (*WaterFilling)(nil)
	_ TermStats = (*FairShare)(nil)
)

// zeroFill zeroes out and returns it — the empty-input/zero-budget
// result, written explicitly because a reused scratch buffer may hold a
// previous round's allocations.
func zeroFill(out []float64) []float64 {
	for i := range out {
		out[i] = 0
	}
	return out
}

// EstimateCost updates a smoothed estimate of cᵢ = rateᵢ·δᵢ² from one
// window. A floor of half a message per window keeps streams that sent
// nothing (fully predictable right now) from collapsing to c=0 and being
// granted δ→0, which would blow the budget the moment they wake up.
func EstimateCost(prev float64, w StreamWindow, smoothing float64) float64 {
	if w.Ticks == 0 || w.Delta <= 0 {
		return prev
	}
	rate := w.rate()
	minRate := 0.5 / float64(w.Ticks)
	if rate < minRate {
		rate = minRate
	}
	sample := rate * w.Delta * w.Delta
	if prev <= 0 {
		return sample
	}
	return smoothing*sample + (1-smoothing)*prev
}

// Uniform assigns the single δ that, under the rᵢ = cᵢ/δ² model, makes
// the total rate meet the budget: δ = √(Σcᵢ/B).
type Uniform struct{}

// Name implements Allocator.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Allocator.
func (Uniform) Allocate(out []float64, windows []StreamWindow, budgetPerTick float64) []float64 {
	if len(windows) == 0 || budgetPerTick <= 0 {
		return zeroFill(out)
	}
	var totalC float64
	for _, w := range windows {
		totalC += w.CostEstimate
	}
	delta := math.Sqrt(totalC / budgetPerTick)
	for i, w := range windows {
		out[i] = w.Clamp(delta)
	}
	return out
}

// AIMD adjusts each stream independently: multiplicative increase of δ
// (backing off precision) when the stream exceeded its fair share of the
// budget, additive-flavoured gentle decrease when it underspent. Requires
// no cost model at all, converges more slowly, and serves as the
// decentralized baseline.
type AIMD struct{}

// AIMD's multiplicative δ steps: growth on overspend, shrink on underspend.
const (
	aimdIncrease = 1.5
	aimdDecrease = 0.95
)

// Name implements Allocator.
func (AIMD) Name() string { return "aimd" }

// Allocate implements Allocator.
func (AIMD) Allocate(out []float64, windows []StreamWindow, budgetPerTick float64) []float64 {
	if len(windows) == 0 || budgetPerTick <= 0 {
		return zeroFill(out)
	}
	share := budgetPerTick / float64(len(windows))
	for i, w := range windows {
		delta := w.Delta
		if delta <= 0 {
			delta = math.SmallestNonzeroFloat64
		}
		if w.rate() > share {
			delta *= aimdIncrease
		} else {
			delta *= aimdDecrease
		}
		out[i] = w.Clamp(delta)
	}
	return out
}

// ByName returns a fresh allocator for the named policy.
func ByName(name string) (Allocator, error) {
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "fair-share":
		return &FairShare{}, nil
	case "water-filling":
		return &WaterFilling{}, nil
	case "aimd":
		return AIMD{}, nil
	default:
		return nil, fmt.Errorf("resource: unknown allocator %q", name)
	}
}
