package kalman

import (
	"fmt"
	"math"
	"slices"
)

// Bank runs several candidate models in parallel and blends their
// predictions by recursive Bayesian model probabilities — the autonomous
// multiple-model (AMM) estimator. Where a single fixed model must be
// chosen for the dominant regime, a bank re-weights automatically when a
// stream switches character (flat ↔ ramp ↔ oscillation), which is exactly
// the failure mode of fixed filters on regime-switching streams.
//
// Each filter keeps its own state; weights evolve as
//
//	wᵢ ∝ wᵢ · p(z | modelᵢ)
//
// with a probability floor so a dormant model can re-awaken when its
// regime returns. Everything is deterministic in the observation
// sequence, so a bank can serve as a replicated predictor.
type Bank struct {
	filters []*Filter
	weights []float64
	floor   float64
	obsDim  int
}

// BankConfig tunes a Bank.
type BankConfig struct {
	// Floor is the minimum model probability after each update
	// (default 1e-4). Higher values re-adapt faster at the cost of more
	// blending noise.
	Floor float64
}

// NewBank builds a bank over the given models, all of which must share
// the observation dimension. Initial weights are uniform; initial states
// are zero with a diffuse prior.
func NewBank(models []*Model, cfg BankConfig) (*Bank, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("kalman: bank needs at least one model")
	}
	if cfg.Floor <= 0 {
		cfg.Floor = 1e-4
	}
	if cfg.Floor >= 1.0/float64(len(models)) {
		return nil, fmt.Errorf("kalman: bank floor %g too high for %d models", cfg.Floor, len(models))
	}
	obsDim := models[0].ObsDim()
	b := &Bank{
		filters: make([]*Filter, len(models)),
		weights: make([]float64, len(models)),
		floor:   cfg.Floor,
		obsDim:  obsDim,
	}
	for i, m := range models {
		if m.ObsDim() != obsDim {
			return nil, fmt.Errorf("kalman: bank model %d has obs dim %d, want %d", i, m.ObsDim(), obsDim)
		}
		n := m.StateDim()
		f, err := NewFilter(m, make([]float64, n), InitialCovariance(n, 1e6))
		if err != nil {
			return nil, fmt.Errorf("kalman: bank model %d: %w", i, err)
		}
		b.filters[i] = f
		b.weights[i] = 1 / float64(len(models))
	}
	return b, nil
}

// Clone returns an independent copy of the bank, filters and weights.
func (b *Bank) Clone() *Bank {
	c := &Bank{filters: make([]*Filter, len(b.filters)), weights: slices.Clone(b.weights), floor: b.floor, obsDim: b.obsDim}
	for i, f := range b.filters {
		c.filters[i] = f.Clone()
	}
	return c
}

// Size returns the number of models in the bank.
func (b *Bank) Size() int { return len(b.filters) }

// ObsDim returns the shared observation dimension.
func (b *Bank) ObsDim() int { return b.obsDim }

// AppendWeights appends the current model probabilities, in model order,
// to dst and returns the extended slice.
func (b *Bank) AppendWeights(dst []float64) []float64 { return append(dst, b.weights...) }

// SetWeights overwrites the model probabilities (used for replica
// resynchronization). The weights must be positive and sum to ≈1.
func (b *Bank) SetWeights(w []float64) error {
	if len(w) != len(b.weights) {
		return fmt.Errorf("kalman: bank has %d models, got %d weights", len(b.weights), len(w))
	}
	var sum float64
	for _, v := range w {
		if v <= 0 {
			return fmt.Errorf("kalman: non-positive bank weight %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("kalman: bank weights sum to %g, want 1", sum)
	}
	copy(b.weights, w)
	return nil
}

// FilterAt exposes the i-th model's filter (for snapshots and
// diagnostics). Mutating it outside Restore breaks replica lock-step.
func (b *Bank) FilterAt(i int) *Filter { return b.filters[i] }

// PredictN advances every model k time steps; the models share no state,
// so each filter runs its own k-step loop.
func (b *Bank) PredictN(k int64) {
	for _, f := range b.filters {
		f.PredictN(k)
	}
}

// ObservationInto writes the probability-weighted blend of the models'
// observation predictions, Σᵢ wᵢ·(Hᵢxᵢ)ₖ per component k, into dst, which
// must have length ObsDim, and returns dst. The sum runs in model order
// from zero, and nothing but dst is written.
func (b *Bank) ObservationInto(dst []float64) []float64 {
	for k := range dst {
		var sum float64
		for i, f := range b.filters {
			sum += b.weights[i] * f.observationAt(k)
		}
		dst[k] = sum
	}
	return dst
}

// Update re-weights the models by their predictive likelihood of z, then
// runs every model's measurement update.
func (b *Bank) Update(z []float64) error {
	if len(z) != b.obsDim {
		return fmt.Errorf("kalman: bank observation has length %d, want %d", len(z), b.obsDim)
	}
	// Work in log space and subtract the max for numerical stability:
	// likelihoods of a surprising observation can underflow float64.
	logLik := make([]float64, len(b.filters))
	maxLL := math.Inf(-1)
	for i, f := range b.filters {
		ll, err := f.LogLikelihood(z)
		if err != nil {
			return fmt.Errorf("kalman: bank model %d: %w", i, err)
		}
		logLik[i] = ll
		if ll > maxLL {
			maxLL = ll
		}
	}
	var total float64
	for i := range b.weights {
		b.weights[i] *= math.Exp(logLik[i] - maxLL)
		total += b.weights[i]
	}
	if total <= 0 || math.IsNaN(total) {
		// All models assign ~zero likelihood (a gross outlier): reset to
		// uniform rather than dividing by zero.
		for i := range b.weights {
			b.weights[i] = 1 / float64(len(b.weights))
		}
	} else {
		for i := range b.weights {
			b.weights[i] /= total
		}
	}
	// Apply the probability floor and renormalize, keeping every regime
	// hypothesis alive.
	total = 0
	for i := range b.weights {
		if b.weights[i] < b.floor {
			b.weights[i] = b.floor
		}
		total += b.weights[i]
	}
	for i := range b.weights {
		b.weights[i] /= total
	}
	for i, f := range b.filters {
		if err := f.Update(z); err != nil {
			return fmt.Errorf("kalman: bank model %d: %w", i, err)
		}
	}
	return nil
}

// ObservationVariance returns the mixture predictive variance per
// observation component: Σ wᵢ·(varᵢ + (obsᵢ − blend)²), accounting both
// for each model's own uncertainty and for inter-model disagreement.
func (b *Bank) ObservationVariance() []float64 {
	blend := b.ObservationInto(make([]float64, b.obsDim))
	out := make([]float64, b.obsDim)
	for i, f := range b.filters {
		v := f.ObservationVariance()
		for k := range out {
			d := f.observationAt(k) - blend[k]
			out[k] += b.weights[i] * (v[k] + d*d)
		}
	}
	return out
}

// Dominant returns the index and probability of the currently most
// likely model.
func (b *Bank) Dominant() (int, float64) {
	best, bw := 0, b.weights[0]
	for i, w := range b.weights {
		if w > bw {
			best, bw = i, w
		}
	}
	return best, bw
}
