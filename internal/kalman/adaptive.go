package kalman

import (
	"fmt"
	"math"
	"slices"

	"kalmanstream/internal/mat"
)

// Adaptive wraps a Filter with innovation-based noise estimation
// (covariance matching). Streams rarely come with a datasheet for their
// noise statistics; the paper's appeal is precisely that the Kalman filter
// can adapt online instead of requiring hand-tuned heuristics.
//
// Two mechanisms run on a sliding window of the most recent innovations:
//
//   - R estimation: the sample innovation covariance Ĉ satisfies
//     E[Ĉ] = H·P⁻·Hᵀ + R for a consistent filter, so R̂ = Ĉ − H·P⁻·Hᵀ,
//     projected onto the PSD cone by flooring its diagonal.
//
//   - Q scaling: the average normalized innovation squared (NIS) of a
//     consistent filter equals the observation dimension m. Sustained
//     NIS above m means the filter is over-confident — the process is
//     livelier than Q admits — so Q is scaled up multiplicatively (and
//     down in the opposite case), bounded to [minQScale, maxQScale].
//
// Adaptation is deterministic given the observation sequence, so two
// replicas fed the same corrections adapt identically — the property the
// dual-filter scheme depends on.
type Adaptive struct {
	filter *Filter

	q0 *mat.Matrix // baseline Q from the model
	r0 *mat.Matrix // baseline R from the model

	window int
	// ring holds the window's slots, each an innovation and its prior
	// H·P⁻·Hᵀ, as AppendSnapshot lays them out: Update and Restore copy.
	ring   []float64
	next   int
	filled bool

	nisSum   float64
	nisCount int

	qScale     float64
	minQScale  float64
	maxQScale  float64
	adaptEvery int // noise is re-estimated every Window/4 updates
	steps      int

	adaptR bool
	adaptQ bool
}

// DefaultWindow is the innovation window of an AdaptiveConfig that sets
// none.
const DefaultWindow = 64

// AdaptiveConfig tunes the adaptation behaviour.
type AdaptiveConfig struct {
	// Window is the number of recent innovations used for estimation.
	// Defaults to DefaultWindow.
	Window int
	// AdaptR enables measurement-noise estimation.
	AdaptR bool
	// AdaptQ enables process-noise scaling.
	AdaptQ bool
	// MinQScale / MaxQScale bound the Q multiplier. Default 1/64 and 64.
	MinQScale, MaxQScale float64
}

// NewAdaptive wraps filter with the given adaptation config.
func NewAdaptive(filter *Filter, cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MinQScale <= 0 {
		cfg.MinQScale = 1.0 / 1024
	}
	if cfg.MaxQScale <= 0 {
		cfg.MaxQScale = 1024
	}
	if cfg.MinQScale > cfg.MaxQScale {
		return nil, fmt.Errorf("kalman: MinQScale %g > MaxQScale %g", cfg.MinQScale, cfg.MaxQScale)
	}
	m := filter.ObsDim()
	return &Adaptive{
		filter:     filter,
		q0:         mat.FromSlice(filter.part(partQ)),
		r0:         mat.FromSlice(filter.part(partR)),
		window:     cfg.Window,
		ring:       make([]float64, cfg.Window*(m+m*m)),
		qScale:     1,
		minQScale:  cfg.MinQScale,
		maxQScale:  cfg.MaxQScale,
		adaptEvery: max(cfg.Window/4, 1),
		adaptR:     cfg.AdaptR,
		adaptQ:     cfg.AdaptQ,
	}, nil
}

// Clone returns a copy of a wrapping filter, which must be a copy of a's
// own (Filter.CloneInto): the window ring is copied, and the baseline
// noise matrices, which nothing writes, are shared.
func (a *Adaptive) Clone(filter *Filter) *Adaptive {
	c := *a
	c.filter, c.ring = filter, slices.Clone(a.ring)
	return &c
}

// slot returns the ring's i-th slot: the innovation, then H·P⁻·Hᵀ.
func (a *Adaptive) slot(i int) []float64 {
	w := len(a.ring) / a.window
	return a.ring[i*w : (i+1)*w]
}

// Filter exposes the wrapped filter: its time update is the adaptive
// filter's, and State, ObservationInto and the rest read through it.
func (a *Adaptive) Filter() *Filter { return a.filter }

// QScale returns the current process-noise multiplier.
func (a *Adaptive) QScale() float64 { return a.qScale }

// Update records the innovation for observation z, performs the wrapped
// filter's measurement update, and periodically re-estimates noise.
func (a *Adaptive) Update(z []float64) error {
	// Capture pre-update innovation and H·P⁻·Hᵀ for covariance matching.
	y, s, err := a.filter.Innovation(z)
	if err != nil {
		return err
	}
	sInv, err := mat.Inverse(s)
	if err != nil {
		return fmt.Errorf("kalman: adaptive update: %w", err)
	}
	a.nisSum += mat.QuadraticForm(sInv, y)
	a.nisCount++

	r, m := a.filter.over(partR), len(y)
	slot := a.slot(a.next)
	hph := mat.Over(m, m, slot[m:])
	copy(slot, y)
	mat.SubTo(&hph, s, &r) // H·P⁻·Hᵀ = S − R
	a.next = (a.next + 1) % a.window
	if a.next == 0 {
		a.filled = true
	}

	if err := a.filter.Update(z); err != nil {
		return err
	}

	a.steps++
	if a.steps%a.adaptEvery == 0 && (a.filled || a.next >= a.window/2) {
		a.reestimate()
	}
	return nil
}

// reestimate recomputes R̂ and the Q scale from the innovation window.
func (a *Adaptive) reestimate() {
	count := a.window
	if !a.filled {
		count = a.next
	}
	if count == 0 {
		return
	}
	m := a.filter.ObsDim()

	// NIS consistency ratio: ≈1 when the filter's uncertainty model
	// matches reality. Computed before either adaptation so R estimation
	// can be gated on it.
	ratio := 1.0
	haveNIS := a.nisCount > 0
	if haveNIS {
		ratio = (a.nisSum / float64(a.nisCount)) / float64(m)
	}

	var newR *mat.Matrix
	// Innovation covariance matching for R is only valid when the filter
	// is roughly consistent; while Q adaptation is still chasing a gross
	// process-model mismatch, the innovations are dominated by tracking
	// error and would be mis-attributed to measurement noise.
	rConsistentEnough := !a.adaptQ || (ratio < 4 && ratio > 1.0/16)
	if a.adaptR && rConsistentEnough {
		// Sample innovation covariance Ĉ = (1/N) Σ y·yᵀ.
		c := mat.New(m, m)
		for i := 0; i < count; i++ {
			innov := a.slot(i)[:m]
			mat.AddTo(c, c, mat.Outer(innov, innov))
		}
		mat.ScaleTo(c, 1/float64(count), c)
		// Average prior H·P⁻·Hᵀ over the window.
		avgHPH := mat.New(m, m)
		for i := 0; i < count; i++ {
			hph := mat.Over(m, m, a.slot(i)[m:])
			mat.AddTo(avgHPH, avgHPH, &hph)
		}
		mat.ScaleTo(avgHPH, 1/float64(count), avgHPH)
		// R̂ = Ĉ − avg(H·P⁻·Hᵀ), floored to stay positive definite.
		newR = mat.Sub(c, avgHPH)
		floorDiagonal(newR, 1e-9*maxDiag(a.r0, 1e-9))
		mat.Symmetrize(newR)
	}

	var newQ *mat.Matrix
	if a.adaptQ && haveNIS {
		// Multiplicative adjustment toward NIS consistency. The square
		// root damps oscillation; the per-round factor is clipped to
		// [1/4, 4] so a single noisy window cannot destabilize the scale.
		if ratio > 1.25 || ratio < 0.8 {
			factor := math.Sqrt(ratio)
			if factor > 4 {
				factor = 4
			}
			if factor < 0.25 {
				factor = 0.25
			}
			a.qScale *= factor
		}
		if a.qScale < a.minQScale {
			a.qScale = a.minQScale
		}
		if a.qScale > a.maxQScale {
			a.qScale = a.maxQScale
		}
		newQ = mat.Scale(a.qScale, a.q0)
	}
	if haveNIS {
		a.nisSum, a.nisCount = 0, 0
	}

	if newR != nil || newQ != nil {
		// SetNoise cannot fail here: dimensions derive from the model.
		_ = a.filter.SetNoise(newQ, newR)
	}
}

// AppendSnapshot appends the complete adaptive state — wrapped filter,
// current noise matrices, Q scale, NIS accumulators, and the innovation
// window — to dst as a flat vector, so a restored replica adapts
// identically from then on.
//
// Layout: [x(n), P(n²), Q(n²), R(m²), qScale, nisSum, nisCount, steps,
// next, filled, count, count × (innov(m), hph(m²))].
func (a *Adaptive) AppendSnapshot(dst []float64) []float64 {
	count := a.window
	if !a.filled {
		count = a.next
	}
	_, _, q := a.filter.part(partQ)
	_, _, r := a.filter.part(partR)
	dst = a.filter.AppendSnapshot(dst)
	dst = append(dst, q...)
	dst = append(dst, r...)
	dst = append(dst, a.qScale, a.nisSum, float64(a.nisCount), float64(a.steps),
		float64(a.next), boolToFloat(a.filled), float64(count))
	return append(dst, a.ring[:count*len(a.ring)/a.window]...)
}

// Restore overwrites the adaptive state from an AppendSnapshot taken on a
// behaviourally identical replica, copying into the filter's block and
// the window ring: it allocates nothing.
func (a *Adaptive) Restore(state []float64) error {
	n := a.filter.StateDim()
	m := a.filter.ObsDim()
	head := n + n*n + n*n + m*m + 7
	if len(state) < head {
		return fmt.Errorf("kalman: adaptive snapshot has %d values, want ≥ %d", len(state), head)
	}
	off := 0
	xp := state[off : off+n+n*n]
	off += n + n*n
	q := state[off : off+n*n]
	off += n * n
	r := state[off : off+m*m]
	off += m * m
	qScale := state[off]
	nisSum := state[off+1]
	nisCount := int(state[off+2])
	steps := int(state[off+3])
	next := int(state[off+4])
	filled := state[off+5] != 0
	count := int(state[off+6])
	off += 7
	// Only the window metadata AppendSnapshot produces is accepted: next
	// indexes the ring, and count is the whole ring once it has filled,
	// the slots before next until then.
	if next < 0 || next >= a.window || (filled && count != a.window) || (!filled && count != next) {
		return fmt.Errorf("kalman: adaptive snapshot window metadata out of range (next %d, filled %t, count %d, window %d)",
			next, filled, count, a.window)
	}
	if len(state) != off+count*(m+m*m) {
		return fmt.Errorf("kalman: adaptive snapshot has %d values, want %d", len(state), off+count*(m+m*m))
	}
	if err := a.filter.Restore(xp); err != nil {
		return err
	}
	_, _, dq := a.filter.part(partQ)
	_, _, dr := a.filter.part(partR)
	copy(dq, q)
	copy(dr, r)
	a.qScale = qScale
	a.nisSum = nisSum
	a.nisCount = nisCount
	a.steps = steps
	a.next = next
	a.filled = filled
	copy(a.ring, state[off:])
	return nil
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// floorDiagonal clamps each diagonal element of square m to at least min,
// and zeroes negative off-diagonal blow-ups that would break positive
// definiteness after the subtraction.
func floorDiagonal(m *mat.Matrix, min float64) {
	for i := 0; i < m.Rows(); i++ {
		if m.At(i, i) < min {
			m.Set(i, i, min)
			// Zero the row/column off-diagonals: a floored variance with
			// stale covariances can produce an indefinite matrix.
			for j := 0; j < m.Cols(); j++ {
				if j != i {
					m.Set(i, j, 0)
					m.Set(j, i, 0)
				}
			}
		}
	}
}

func maxDiag(m *mat.Matrix, floor float64) float64 {
	v := floor
	for i := 0; i < m.Rows(); i++ {
		if d := m.At(i, i); d > v {
			v = d
		}
	}
	return v
}
