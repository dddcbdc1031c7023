package kalman

import (
	"fmt"
	"math"

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

	window   int
	innovs   [][]float64 // ring buffer of post-fit innovations
	priorHPH []*mat.Matrix
	next     int
	filled   bool

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
	return &Adaptive{
		filter:     filter,
		q0:         mat.FromSlice(filter.part(partQ)),
		r0:         mat.FromSlice(filter.part(partR)),
		window:     cfg.Window,
		innovs:     make([][]float64, cfg.Window),
		priorHPH:   make([]*mat.Matrix, cfg.Window),
		qScale:     1,
		minQScale:  cfg.MinQScale,
		maxQScale:  cfg.MaxQScale,
		adaptEvery: max(cfg.Window/4, 1),
		adaptR:     cfg.AdaptR,
		adaptQ:     cfg.AdaptQ,
	}, nil
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

	r := a.filter.over(partR)
	hph := mat.Sub(s, &r) // H·P⁻·Hᵀ = S − R
	a.innovs[a.next] = y
	a.priorHPH[a.next] = hph
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
			mat.AddTo(c, c, mat.Outer(a.innovs[i], a.innovs[i]))
		}
		mat.ScaleTo(c, 1/float64(count), c)
		// Average prior H·P⁻·Hᵀ over the window.
		avgHPH := mat.New(m, m)
		for i := 0; i < count; i++ {
			mat.AddTo(avgHPH, avgHPH, a.priorHPH[i])
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
	for i := 0; i < count; i++ {
		dst = append(dst, a.innovs[i]...)
		dst = append(dst, a.priorHPH[i].Raw()...)
	}
	return dst
}

// Restore overwrites the adaptive state from an AppendSnapshot taken on a
// behaviourally identical replica.
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
	if err := a.filter.SetNoise(mat.FromSlice(n, n, q), mat.FromSlice(m, m, r)); err != nil {
		return err
	}
	a.qScale = qScale
	a.nisSum = nisSum
	a.nisCount = nisCount
	a.steps = steps
	a.next = next
	a.filled = filled
	for i := range a.innovs {
		a.innovs[i] = nil
		a.priorHPH[i] = nil
	}
	for i := 0; i < count; i++ {
		innov := make([]float64, m)
		copy(innov, state[off:off+m])
		off += m
		a.innovs[i] = innov
		a.priorHPH[i] = mat.FromSlice(m, m, state[off:off+m*m])
		off += m * m
	}
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
