package kalman

import (
	"fmt"
	"math"

	"kalmanstream/internal/mat"
)

// shape selects a filter's arithmetic, once, from its model's dimensions.
// A shape with a kernel (kernels.go) steps and updates over fixed-size
// locals and owns no scratch; every other shape runs the mat path.
type shape uint8

const (
	shapeGeneric shape = iota // any n×m: the mat path, over scratch
	shape1x1                  // RandomWalk
	shape2x1                  // ConstantVelocity
)

func shapeOf(n, m int) shape {
	switch {
	case n == 1 && m == 1:
		return shape1x1
	case n == 2 && m == 1:
		return shape2x1
	}
	return shapeGeneric
}

// Filter is a discrete-time linear Kalman filter over a Model.
//
// The usual cycle per tick is PredictN(1) (time update) followed, when a
// measurement is available, by Update (measurement update). Skipping
// Update on a tick is exactly the suppression mechanism the stream system
// exploits: the filter coasts on its dynamics.
type Filter struct {
	// blk holds F | Q | H | R | P | x back to back, row-major: with the
	// counters beside it, a lazy advance of a cold stream touches two or
	// three cache lines. The fields a kernel reads come first for the same
	// reason.
	blk     []float64
	shape   shape
	ticks   uint64   // time updates since construction
	updates uint64   // Update calls since construction
	g       *scratch // the mat path's temporaries; nil for a kernel shape

	// Views into blk for the mat path and the accessors: hdr are the five
	// matrix headers in blk's order, model's fields and p point at them.
	x     []float64   // state estimate
	p     *mat.Matrix // estimate covariance
	model Model
	hdr   [5]mat.Matrix
}

// scratch is everything the mat path writes besides x and P, preallocated
// so its hot loop runs without garbage. Only a filter whose shape has no
// kernel owns one.
type scratch struct {
	xNext  []float64
	ft     *mat.Matrix // Fᵀ
	ht     *mat.Matrix // Hᵀ
	tmpNN  *mat.Matrix
	tmpNN2 *mat.Matrix
	tmpNM  *mat.Matrix
	tmpMN  *mat.Matrix
	tmpMM  *mat.Matrix
	gain   *mat.Matrix // K, n×m
	innov  []float64
	hx     []float64
	sMM    *mat.Matrix // S = H·P·Hᵀ + R
	sInv   *mat.Matrix // S⁻¹
	sWork  *mat.Matrix // InverseTo elimination scratch
	ikh    *mat.Matrix // I − K·H
	leftNN *mat.Matrix // (I−KH)·P·(I−KH)ᵀ
	krkNN  *mat.Matrix // K·R·Kᵀ
	ky     []float64   // K·y
}

func newScratch(model *Model) *scratch {
	n, m := model.StateDim(), model.ObsDim()
	return &scratch{
		xNext:  make([]float64, n),
		ft:     mat.Transpose(model.F),
		ht:     mat.Transpose(model.H),
		tmpNN:  mat.New(n, n),
		tmpNN2: mat.New(n, n),
		tmpNM:  mat.New(n, m),
		tmpMN:  mat.New(m, n),
		tmpMM:  mat.New(m, m),
		gain:   mat.New(n, m),
		innov:  make([]float64, m),
		hx:     make([]float64, m),
		sMM:    mat.New(m, m),
		sInv:   mat.New(m, m),
		sWork:  mat.New(m, m),
		ikh:    mat.New(n, n),
		leftNN: mat.New(n, n),
		krkNN:  mat.New(n, n),
		ky:     make([]float64, n),
	}
}

// NewFilter constructs a filter for model with initial state x0 and
// initial covariance p0. The model and inputs are deep-copied, so a source
// and a server can construct byte-identical replicas from the same spec.
func NewFilter(model *Model, x0 []float64, p0 *mat.Matrix) (*Filter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	n, m := model.StateDim(), model.ObsDim()
	if len(x0) != n {
		return nil, fmt.Errorf("kalman: initial state has length %d, want %d", len(x0), n)
	}
	if p0.Rows() != n || p0.Cols() != n {
		return nil, fmt.Errorf("kalman: initial covariance is %d×%d, want %d×%d", p0.Rows(), p0.Cols(), n, n)
	}
	f := &Filter{blk: make([]float64, 3*n*n+m*n+m*m+n), shape: shapeOf(n, m)}
	rest := f.blk
	for i, src := range [5]*mat.Matrix{model.F, model.Q, model.H, model.R, p0} {
		size := src.Rows() * src.Cols()
		f.hdr[i] = mat.Over(src.Rows(), src.Cols(), rest[:size:size])
		f.hdr[i].CopyFrom(src)
		rest = rest[size:]
	}
	f.model = Model{Name: model.Name, F: &f.hdr[0], Q: &f.hdr[1], H: &f.hdr[2], R: &f.hdr[3]}
	f.p = &f.hdr[4]
	f.x = rest
	copy(f.x, x0)
	if f.shape == shapeGeneric {
		f.g = newScratch(&f.model)
	}
	return f, nil
}

// MustFilter is NewFilter that panics on error; for model constructors
// whose dimensions are correct by construction.
func MustFilter(model *Model, x0 []float64, p0 *mat.Matrix) *Filter {
	f, err := NewFilter(model, x0, p0)
	if err != nil {
		panic(err)
	}
	return f
}

// Model returns a copy of the filter's model.
func (f *Filter) Model() *Model { return f.model.Clone() }

// StateDim returns the model's state dimension without copying the model.
func (f *Filter) StateDim() int { return f.model.StateDim() }

// ObsDim returns the model's observation dimension without copying the
// model. Hot paths must use this rather than Model().ObsDim(): Model
// deep-copies four matrices to protect the filter's internals, which is
// exactly wrong for a per-tick dimension check.
func (f *Filter) ObsDim() int { return f.model.ObsDim() }

// PredictN performs k time updates (none for k ≤ 0), each
//
//	x ← F·x
//	P ← F·P·Fᵀ + Q
//
// and is bit-identical to k calls with k = 1: the arithmetic is a literal
// k-iteration loop, with only the dispatch, the operand loads and the
// stores hoisted out of it. It is what makes a lazy advance over
// suppressed ticks one call.
func (f *Filter) PredictN(k int64) {
	if k <= 0 {
		return
	}
	switch f.shape {
	case shape1x1:
		f.predict1x1(k)
	case shape2x1:
		f.predict2x1(k)
	default:
		for i := int64(0); i < k; i++ {
			f.predictGeneric()
		}
	}
	f.ticks += uint64(k)
}

func (f *Filter) predictGeneric() {
	g := f.g
	mat.MulVecTo(g.xNext, f.model.F, f.x)
	copy(f.x, g.xNext)

	mat.MulTo(g.tmpNN, f.model.F, f.p)  // F·P
	mat.MulTo(g.tmpNN2, g.tmpNN, g.ft)  // F·P·Fᵀ
	mat.AddTo(f.p, g.tmpNN2, f.model.Q) // + Q
	mat.Symmetrize(f.p)
}

// Update performs the measurement update with observation z using the
// Joseph-form covariance update:
//
//	y = z − H·x
//	S = H·P·Hᵀ + R
//	K = P·Hᵀ·S⁻¹
//	x ← x + K·y
//	P ← (I−KH)·P·(I−KH)ᵀ + K·R·Kᵀ
//
// Returns an error if the innovation covariance S is singular; x and P
// are then left as they were.
func (f *Filter) Update(z []float64) error {
	m := f.model.ObsDim()
	if len(z) != m {
		return fmt.Errorf("kalman: observation has length %d, want %d", len(z), m)
	}
	var err error
	switch f.shape {
	case shape1x1:
		err = f.update1x1(z[0])
	case shape2x1:
		err = f.update2x1(z[0])
	default:
		err = f.updateGeneric(z)
	}
	if err != nil {
		return fmt.Errorf("kalman: innovation covariance singular: %w", err)
	}
	f.updates++
	return nil
}

func (f *Filter) updateGeneric(z []float64) error {
	g := f.g
	// Innovation y = z − H·x.
	mat.MulVecTo(g.hx, f.model.H, f.x)
	for i := range g.innov {
		g.innov[i] = z[i] - g.hx[i]
	}
	// S = H·P·Hᵀ + R.
	mat.MulTo(g.tmpMN, f.model.H, f.p)   // H·P
	mat.MulTo(g.tmpMM, g.tmpMN, g.ht)    // H·P·Hᵀ
	mat.AddTo(g.sMM, g.tmpMM, f.model.R) // + R
	if err := mat.InverseTo(g.sInv, g.sWork, g.sMM); err != nil {
		return err
	}
	// K = P·Hᵀ·S⁻¹.
	mat.MulTo(g.tmpNM, f.p, g.ht)
	mat.MulTo(g.gain, g.tmpNM, g.sInv)
	// x ← x + K·y.
	mat.MulVecTo(g.ky, g.gain, g.innov)
	for i := range f.x {
		f.x[i] += g.ky[i]
	}
	// Joseph form: P ← (I−KH)·P·(I−KH)ᵀ + K·R·Kᵀ, built entirely in
	// scratch: K·H lands in tmpNN, (I−KH)ᵀ reuses tmpNN afterwards, and
	// the transposed gain borrows tmpMN (both free by this point).
	g.ikh.SetIdentity()
	mat.MulTo(g.tmpNN, g.gain, f.model.H) // K·H
	mat.SubTo(g.ikh, g.ikh, g.tmpNN)      // I − K·H
	mat.MulTo(g.tmpNN2, g.ikh, f.p)       // (I−KH)·P
	mat.TransposeTo(g.tmpNN, g.ikh)       // (I−KH)ᵀ
	mat.MulTo(g.leftNN, g.tmpNN2, g.tmpNN)
	mat.MulTo(g.tmpNM, g.gain, f.model.R) // K·R
	mat.TransposeTo(g.tmpMN, g.gain)      // Kᵀ
	mat.MulTo(g.krkNN, g.tmpNM, g.tmpMN)
	mat.AddTo(f.p, g.leftNN, g.krkNN)
	mat.Symmetrize(f.p)
	return nil
}

// State returns a copy of the current state estimate.
func (f *Filter) State() []float64 { return mat.VecClone(f.x) }

// SetState overwrites the state estimate (used for hard resynchronization).
func (f *Filter) SetState(x []float64) error {
	if len(x) != f.model.StateDim() {
		return fmt.Errorf("kalman: state has length %d, want %d", len(x), f.model.StateDim())
	}
	copy(f.x, x)
	return nil
}

// Covariance returns a copy of the current estimate covariance.
func (f *Filter) Covariance() *mat.Matrix { return f.p.Clone() }

// AppendSnapshot appends the filter's state estimate and its covariance
// (row-major) to dst and returns the extended slice: the layout SetState
// and SetCovariance restore, with no copy in between.
func (f *Filter) AppendSnapshot(dst []float64) []float64 {
	return append(append(dst, f.x...), f.p.Raw()...)
}

// SetCovariance overwrites the covariance (used for resynchronization).
func (f *Filter) SetCovariance(p *mat.Matrix) error {
	if p.Rows() != f.model.StateDim() || p.Cols() != f.model.StateDim() {
		return fmt.Errorf("kalman: covariance is %d×%d, want %d×%d",
			p.Rows(), p.Cols(), f.model.StateDim(), f.model.StateDim())
	}
	f.p.CopyFrom(p)
	return nil
}

// ObservationInto computes H·x, the filter's estimate of the observable
// quantity at the current state, into dst, which must have length ObsDim.
func (f *Filter) ObservationInto(dst []float64) []float64 {
	for k := range dst {
		dst[k] = f.observationAt(k)
	}
	return dst
}

// observationAt returns (H·x)ₖ — the kernel for a kernel shape, else the
// row loop mat.MulVecTo runs — and writes nothing.
func (f *Filter) observationAt(k int) float64 {
	switch f.shape {
	case shape1x1:
		return f.observe1x1()
	case shape2x1:
		return f.observe2x1()
	}
	n := len(f.x)
	var s float64
	for j, v := range f.model.H.Raw()[k*n : (k+1)*n] {
		s += v * f.x[j]
	}
	return s
}

// ObservationVariance returns the predictive variance of each observation
// component: diag(H·P·Hᵀ + R). This is the filter's own uncertainty about
// the next measurement, the basis for probabilistic answers.
func (f *Filter) ObservationVariance() []float64 {
	s := mat.Add(mat.Mul3(f.model.H, f.p, mat.Transpose(f.model.H)), f.model.R)
	out := make([]float64, f.model.ObsDim())
	for i := range out {
		out[i] = s.At(i, i)
	}
	return out
}

// Innovation returns the pre-update innovation y = z − H·x and its
// covariance S = H·P·Hᵀ + R for a candidate observation z, without
// mutating the filter.
func (f *Filter) Innovation(z []float64) ([]float64, *mat.Matrix, error) {
	m := f.model.ObsDim()
	if len(z) != m {
		return nil, nil, fmt.Errorf("kalman: observation has length %d, want %d", len(z), m)
	}
	hx := mat.MulVec(f.model.H, f.x)
	y := mat.VecSub(z, hx)
	s := mat.Add(mat.Mul3(f.model.H, f.p, mat.Transpose(f.model.H)), f.model.R)
	return y, s, nil
}

// NIS returns the normalized innovation squared yᵀ·S⁻¹·y for observation
// z. For a consistent filter its long-run average equals the observation
// dimension m.
func (f *Filter) NIS(z []float64) (float64, error) {
	y, s, err := f.Innovation(z)
	if err != nil {
		return 0, err
	}
	sInv, err := mat.Inverse(s)
	if err != nil {
		return 0, fmt.Errorf("kalman: innovation covariance singular: %w", err)
	}
	return mat.QuadraticForm(sInv, y), nil
}

// LogLikelihood returns the Gaussian log-likelihood of observation z under
// the filter's current predictive distribution. Useful for online model
// selection between candidate dynamics.
func (f *Filter) LogLikelihood(z []float64) (float64, error) {
	y, s, err := f.Innovation(z)
	if err != nil {
		return 0, err
	}
	sInv, err := mat.Inverse(s)
	if err != nil {
		return 0, fmt.Errorf("kalman: innovation covariance singular: %w", err)
	}
	det := mat.Det(s)
	if det <= 0 {
		return 0, fmt.Errorf("kalman: innovation covariance not positive definite (det=%g)", det)
	}
	m := float64(f.model.ObsDim())
	return -0.5 * (m*math.Log(2*math.Pi) + math.Log(det) + mat.QuadraticForm(sInv, y)), nil
}

// Ticks returns the number of time updates performed.
func (f *Filter) Ticks() uint64 { return f.ticks }

// Updates returns the number of Update calls performed.
func (f *Filter) Updates() uint64 { return f.updates }

// Clone returns an independent deep copy of the filter, preserving state,
// covariance, and counters.
func (f *Filter) Clone() *Filter {
	c := MustFilter(&f.model, f.x, f.p)
	c.ticks = f.ticks
	c.updates = f.updates
	return c
}

// SetNoise replaces the process and/or measurement noise covariances.
// Either argument may be nil to leave the corresponding matrix untouched.
// Used by the adaptive layer.
func (f *Filter) SetNoise(q, r *mat.Matrix) error {
	n, m := f.model.StateDim(), f.model.ObsDim()
	if q != nil {
		if q.Rows() != n || q.Cols() != n {
			return fmt.Errorf("kalman: Q is %d×%d, want %d×%d", q.Rows(), q.Cols(), n, n)
		}
		f.model.Q.CopyFrom(q)
	}
	if r != nil {
		if r.Rows() != m || r.Cols() != m {
			return fmt.Errorf("kalman: R is %d×%d, want %d×%d", r.Rows(), r.Cols(), m, m)
		}
		f.model.R.CopyFrom(r)
	}
	return nil
}
