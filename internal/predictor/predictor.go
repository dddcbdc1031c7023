// Package predictor defines the replicable prediction procedures at the
// heart of the dual-filter protocol, together with the baseline methods
// the paper compares against.
//
// A Predictor is a deterministic state machine. The data source and the
// server each construct one replica from the same Spec; every tick both
// call Step, and whenever the source ships a correction both call Correct
// with the same measurement. Determinism guarantees the replicas remain
// in lock-step forever, which is what lets the source know *exactly* what
// the server is predicting without any communication — the suppression
// decision is made against that shared prediction.
//
// Implementations:
//
//   - Static        — approximate caching (Olston-style): predict the last
//     shipped value. The classic baseline.
//   - DeadReckoning — linear extrapolation from the last two shipped
//     values, as used in moving-object databases.
//   - EWMA          — exponentially weighted moving average level.
//   - Kalman        — the paper's contribution: a Kalman filter replica,
//     optionally with adaptive noise estimation.
package predictor

import (
	"fmt"
	"slices"

	"kalmanstream/internal/kalman"
)

// Predictor is a deterministic, replicable prediction procedure over a
// stream of measurements. It is the one contract every replica meets:
// every built-in predicts into a caller's buffer and snapshots its state.
type Predictor interface {
	// Name identifies the method for reports.
	Name() string
	// Dim is the dimensionality of predictions and corrections.
	Dim() int
	// Step advances the predictor's clock by one tick (the time update).
	Step()
	// StepN advances the clock by k ticks (none for k ≤ 0) and leaves the
	// predictor bit-identical to k Step calls — a lazy advance over
	// suppressed ticks is one call, and replicas stay in lock-step whichever
	// form either side used.
	StepN(k int64)
	// PredictInto writes the predictor's estimate of the current
	// measurement into dst, which must have length Dim, and returns dst.
	// It writes nothing but dst, so concurrent readers with their own
	// buffers may share a replica.
	PredictInto(dst []float64) []float64
	// Correct incorporates a shipped measurement (the measurement
	// update). Must be called at the same ticks on every replica.
	Correct(z []float64) error
	// Clone returns an independent replica in the same state, bit for
	// bit: the two share nothing either writes. A registry builds one
	// replica per distinct spec and clones it for every stream.
	Clone() Predictor
	Snapshotter
}

// Uncertainty is implemented by predictors that can quantify their own
// predictive spread, enabling probabilistic query answers on top of the
// hard δ bound. Model-free baselines (static cache, dead reckoning, EWMA,
// Holt) do not implement it.
type Uncertainty interface {
	// PredictVariance returns the predictive variance of each
	// observation component at the current tick.
	PredictVariance() []float64
}

// Snapshotter is the state half of the contract: the full internal state
// serialized as a flat float64 vector, so a source can ship a snapshot
// that hard-resynchronizes a server replica after message loss, and a
// checkpoint can carry every replica. Restore must leave the replica
// bit-identical to the one the snapshot was taken from.
type Snapshotter interface {
	// AppendSnapshot appends the predictor's complete state to dst and
	// returns the extended slice; with spare capacity it does not
	// allocate.
	AppendSnapshot(dst []float64) []float64
	// Restore overwrites the predictor's state from a snapshot taken on
	// a behaviourally identical replica. A snapshot no replica could have
	// produced is refused before anything moves.
	Restore(state []float64) error
}

// Static predicts the most recently corrected value; before any
// correction it predicts zero. This is value caching: the baseline every
// approximate-caching system implements.
type Static struct {
	dim  int
	last []float64
}

// NewStatic returns a static value-cache predictor of dimension dim.
func NewStatic(dim int) *Static {
	return &Static{dim: dim, last: make([]float64, dim)}
}

// Name implements Predictor.
func (s *Static) Name() string { return "static-cache" }

// Dim implements Predictor.
func (s *Static) Dim() int { return s.dim }

// Step implements Predictor; a cached value does not evolve.
func (s *Static) Step() {}

// StepN implements Predictor.
func (s *Static) StepN(int64) {}

// PredictInto implements Predictor.
func (s *Static) PredictInto(dst []float64) []float64 {
	copy(dst, s.last)
	return dst
}

// Clone implements Predictor.
func (s *Static) Clone() Predictor { return &Static{dim: s.dim, last: slices.Clone(s.last)} }

// Correct implements Predictor.
func (s *Static) Correct(z []float64) error {
	if len(z) != s.dim {
		return fmt.Errorf("predictor: static correct dim %d, want %d", len(z), s.dim)
	}
	copy(s.last, z)
	return nil
}

// DeadReckoning extrapolates linearly from the last two corrections. With
// fewer than two corrections it behaves like Static.
type DeadReckoning struct {
	dim        int
	have       int // number of corrections seen (capped at 2)
	last       []float64
	slope      []float64 // per-tick velocity estimated at last correction
	sinceTicks int64     // ticks since the last correction
}

// NewDeadReckoning returns a linear-extrapolation predictor of dimension
// dim.
func NewDeadReckoning(dim int) *DeadReckoning {
	return &DeadReckoning{
		dim:   dim,
		last:  make([]float64, dim),
		slope: make([]float64, dim),
	}
}

// Name implements Predictor.
func (d *DeadReckoning) Name() string { return "dead-reckoning" }

// Dim implements Predictor.
func (d *DeadReckoning) Dim() int { return d.dim }

// Step implements Predictor.
func (d *DeadReckoning) Step() { d.sinceTicks++ }

// StepN implements Predictor.
func (d *DeadReckoning) StepN(k int64) { d.sinceTicks += max(k, 0) }

// PredictInto implements Predictor.
func (d *DeadReckoning) PredictInto(dst []float64) []float64 {
	for i := range dst {
		dst[i] = d.last[i] + d.slope[i]*float64(d.sinceTicks)
	}
	return dst
}

// Clone implements Predictor.
func (d *DeadReckoning) Clone() Predictor {
	return &DeadReckoning{dim: d.dim, have: d.have, last: slices.Clone(d.last), slope: slices.Clone(d.slope),
		sinceTicks: d.sinceTicks}
}

// Correct implements Predictor.
func (d *DeadReckoning) Correct(z []float64) error {
	if len(z) != d.dim {
		return fmt.Errorf("predictor: dead-reckoning correct dim %d, want %d", len(z), d.dim)
	}
	if d.have > 0 && d.sinceTicks > 0 {
		for i := range d.slope {
			d.slope[i] = (z[i] - d.last[i]) / float64(d.sinceTicks)
		}
	}
	copy(d.last, z)
	d.sinceTicks = 0
	if d.have < 2 {
		d.have++
	}
	return nil
}

// EWMA predicts an exponentially weighted moving average of the shipped
// values. The level is constant between corrections.
type EWMA struct {
	dim    int
	alpha  float64
	level  []float64
	primed bool
}

// NewEWMA returns an EWMA predictor with smoothing factor alpha ∈ (0, 1].
func NewEWMA(dim int, alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("predictor: EWMA alpha %g outside (0, 1]", alpha)
	}
	return &EWMA{dim: dim, alpha: alpha, level: make([]float64, dim)}, nil
}

// Name implements Predictor.
func (e *EWMA) Name() string { return "ewma" }

// Dim implements Predictor.
func (e *EWMA) Dim() int { return e.dim }

// Step implements Predictor.
func (e *EWMA) Step() {}

// StepN implements Predictor.
func (e *EWMA) StepN(int64) {}

// PredictInto implements Predictor.
func (e *EWMA) PredictInto(dst []float64) []float64 {
	copy(dst, e.level)
	return dst
}

// Clone implements Predictor.
func (e *EWMA) Clone() Predictor {
	return &EWMA{dim: e.dim, alpha: e.alpha, level: slices.Clone(e.level), primed: e.primed}
}

// Correct implements Predictor.
func (e *EWMA) Correct(z []float64) error {
	if len(z) != e.dim {
		return fmt.Errorf("predictor: ewma correct dim %d, want %d", len(z), e.dim)
	}
	if !e.primed {
		copy(e.level, z)
		e.primed = true
		return nil
	}
	for i := range e.level {
		e.level[i] = e.alpha*z[i] + (1-e.alpha)*e.level[i]
	}
	return nil
}

// Holt implements double exponential smoothing (Holt's linear trend
// method): a smoothed level plus a smoothed trend, extrapolated linearly
// between corrections. It is the strongest of the classical model-free
// forecasting baselines — dead reckoning with noise suppression.
type Holt struct {
	dim        int
	alpha      float64 // level smoothing
	beta       float64 // trend smoothing
	level      []float64
	trend      []float64
	sinceTicks int64
	corrs      int // 0, 1, 2+: initialization stages
}

// NewHolt returns a Holt linear-trend predictor with smoothing factors
// alpha, beta ∈ (0, 1].
func NewHolt(dim int, alpha, beta float64) (*Holt, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("predictor: Holt alpha %g outside (0, 1]", alpha)
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("predictor: Holt beta %g outside (0, 1]", beta)
	}
	return &Holt{
		dim:   dim,
		alpha: alpha,
		beta:  beta,
		level: make([]float64, dim),
		trend: make([]float64, dim),
	}, nil
}

// Name implements Predictor.
func (h *Holt) Name() string { return "holt" }

// Dim implements Predictor.
func (h *Holt) Dim() int { return h.dim }

// Step implements Predictor.
func (h *Holt) Step() { h.sinceTicks++ }

// StepN implements Predictor.
func (h *Holt) StepN(k int64) { h.sinceTicks += max(k, 0) }

// PredictInto implements Predictor.
func (h *Holt) PredictInto(dst []float64) []float64 {
	for i := range dst {
		dst[i] = h.level[i] + h.trend[i]*float64(h.sinceTicks)
	}
	return dst
}

// Clone implements Predictor.
func (h *Holt) Clone() Predictor {
	c := *h
	c.level, c.trend = slices.Clone(h.level), slices.Clone(h.trend)
	return &c
}

// Correct implements Predictor. Corrections may arrive any number of
// ticks apart; the smoothing treats the elapsed gap as one Holt step on
// the extrapolated forecast, which keeps the recursion well defined under
// suppression.
func (h *Holt) Correct(z []float64) error {
	if len(z) != h.dim {
		return fmt.Errorf("predictor: holt correct dim %d, want %d", len(z), h.dim)
	}
	gap := float64(h.sinceTicks)
	switch h.corrs {
	case 0:
		copy(h.level, z)
	case 1:
		for i := range h.level {
			if gap > 0 {
				h.trend[i] = (z[i] - h.level[i]) / gap
			}
			h.level[i] = z[i]
		}
	default:
		for i := range h.level {
			forecast := h.level[i] + h.trend[i]*gap
			newLevel := h.alpha*z[i] + (1-h.alpha)*forecast
			perTick := h.trend[i]
			if gap > 0 {
				perTick = (newLevel - h.level[i]) / gap
			}
			h.trend[i] = h.beta*perTick + (1-h.beta)*h.trend[i]
			h.level[i] = newLevel
		}
	}
	if h.corrs < 2 {
		h.corrs++
	}
	h.sinceTicks = 0
	return nil
}

// AppendSnapshot implements Predictor:
// [corrs, sinceTicks, level..., trend...].
func (h *Holt) AppendSnapshot(dst []float64) []float64 {
	dst = append(dst, float64(h.corrs), float64(h.sinceTicks))
	dst = append(dst, h.level...)
	return append(dst, h.trend...)
}

// Restore implements Predictor.
func (h *Holt) Restore(state []float64) error {
	if len(state) != 2+2*h.dim {
		return fmt.Errorf("predictor: holt snapshot has %d values, want %d", len(state), 2+2*h.dim)
	}
	h.corrs = int(state[0])
	h.sinceTicks = int64(state[1])
	copy(h.level, state[2:2+h.dim])
	copy(h.trend, state[2+h.dim:])
	return nil
}

// Kalman wraps a Kalman filter (optionally adaptive) behind the
// Predictor interface. Step maps to the filter's time update and Correct
// to its measurement update, so between corrections the prediction coasts
// along the model dynamics — the behaviour that lets it beat static
// caching on any stream with exploitable structure.
//
// The filter is held by value, and a kernel shape's block (1×1 or 2×1)
// lies in the same allocation right behind the predictor, so a replica
// is one object: a cold correction misses on it alone.
type Kalman struct {
	filter   kalman.Filter
	adaptive *kalman.Adaptive // nil when non-adaptive
}

// NewKalman returns a predictor over the given model, starting from a
// zero state with a diffuse prior.
func NewKalman(model *kalman.Model) (*Kalman, error) {
	n := model.StateDim()
	k, blk := newKalman(n, model.ObsDim())
	if err := kalman.InitFilter(&k.filter, blk, model, make([]float64, n), kalman.InitialCovariance(n, 1e6)); err != nil {
		return nil, err
	}
	return k, nil
}

// newKalman allocates an n-state, m-observation replica, and for a
// kernel shape its block in the same object (nil for any other shape).
func newKalman(n, m int) (*Kalman, []float64) {
	switch {
	case n == 1 && m == 1:
		r := new(struct {
			Kalman
			blk [6]float64
		})
		return &r.Kalman, r.blk[:]
	case n == 2 && m == 1:
		r := new(struct {
			Kalman
			blk [17]float64
		})
		return &r.Kalman, r.blk[:]
	}
	return new(Kalman), nil
}

// Clone implements Predictor: one allocation for a kernel shape.
func (k *Kalman) Clone() Predictor {
	c, blk := newKalman(k.filter.StateDim(), k.filter.ObsDim())
	k.filter.CloneInto(&c.filter, blk)
	if k.adaptive != nil {
		c.adaptive = k.adaptive.Clone(&c.filter)
	}
	return c
}

// NewAdaptiveKalman returns a Kalman predictor with innovation-driven
// noise adaptation.
func NewAdaptiveKalman(model *kalman.Model, cfg kalman.AdaptiveConfig) (*Kalman, error) {
	k, err := NewKalman(model)
	if err != nil {
		return nil, err
	}
	a, err := kalman.NewAdaptive(&k.filter, cfg)
	if err != nil {
		return nil, err
	}
	k.adaptive = a
	return k, nil
}

// Name implements Predictor. It is built on each call, for diagnostics:
// a replica holds no string of its own.
func (k *Kalman) Name() string {
	name := "kalman-" + k.filter.Model().Name
	if k.adaptive != nil {
		name = "adaptive-" + name
	}
	return name
}

// Dim implements Predictor.
func (k *Kalman) Dim() int { return k.filter.ObsDim() }

// Step implements Predictor. (An adaptive filter's time update is the
// wrapped filter's: adaptation happens in Correct only.)
func (k *Kalman) Step() { k.filter.PredictN(1) }

// StepN implements Predictor: the k-iteration loop runs inside the filter.
func (k *Kalman) StepN(n int64) { k.filter.PredictN(n) }

// PredictInto implements Predictor.
func (k *Kalman) PredictInto(dst []float64) []float64 {
	return k.filter.ObservationInto(dst)
}

// Correct implements Predictor.
func (k *Kalman) Correct(z []float64) error {
	if k.adaptive != nil {
		return k.adaptive.Update(z)
	}
	return k.filter.Update(z)
}

// PredictVariance implements Uncertainty.
func (k *Kalman) PredictVariance() []float64 { return k.filter.ObservationVariance() }

// Filter exposes the underlying filter for diagnostics (covariance,
// innovation statistics). Mutating it directly breaks replica lock-step.
func (k *Kalman) Filter() *kalman.Filter { return &k.filter }

// KalmanBank blends a bank of candidate models by recursive model
// probability — the predictor of choice when a stream's regime changes
// over time and no single fixed model fits.
type KalmanBank struct {
	bank *kalman.Bank
}

// NewKalmanBank returns a bank predictor over the candidate models.
func NewKalmanBank(models []*kalman.Model, cfg kalman.BankConfig) (*KalmanBank, error) {
	bank, err := kalman.NewBank(models, cfg)
	if err != nil {
		return nil, err
	}
	return &KalmanBank{bank: bank}, nil
}

// Name implements Predictor.
func (k *KalmanBank) Name() string { return "kalman-bank" }

// Dim implements Predictor.
func (k *KalmanBank) Dim() int { return k.bank.ObsDim() }

// Step implements Predictor.
func (k *KalmanBank) Step() { k.bank.PredictN(1) }

// StepN implements Predictor: each model's filter loops on its own.
func (k *KalmanBank) StepN(n int64) { k.bank.PredictN(n) }

// PredictInto implements Predictor: the probability-weighted blend of the
// models' observation predictions.
func (k *KalmanBank) PredictInto(dst []float64) []float64 {
	return k.bank.ObservationInto(dst)
}

// Clone implements Predictor.
func (k *KalmanBank) Clone() Predictor { return &KalmanBank{bank: k.bank.Clone()} }

// Correct implements Predictor.
func (k *KalmanBank) Correct(z []float64) error { return k.bank.Update(z) }

// PredictVariance implements Uncertainty.
func (k *KalmanBank) PredictVariance() []float64 { return k.bank.ObservationVariance() }
