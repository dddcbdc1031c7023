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
	_ noCopy // a copy would share the original's block
	// blk holds F | Q | H | R | P | x back to back, row-major. With the
	// dimensions and counters beside it that is all a kernel shape owns,
	// so a lazy advance of a cold stream touches the struct's line and the
	// block's two or three, and the filter holds no pointer into itself.
	blk     []float64
	shape   shape
	n, m    int32    // state and observation dimensions
	ticks   uint64   // time updates since construction
	updates uint64   // Update calls since construction
	g       *scratch // the mat path's headers and temporaries (scratch); nil for a kernel shape
	name    string   // the model's
}

// The block's matrices, in blk's order; x follows them.
const partF, partQ, partH, partR, partP = 0, 1, 2, 3, 4

// part returns the dimensions and elements of the block's i-th matrix.
func (f *Filter) part(i int) (rows, cols int, data []float64) {
	n, m := int(f.n), int(f.m)
	off := [5]int{0, n * n, 2 * n * n, 2*n*n + m*n, 2*n*n + m*n + m*m}[i]
	rows, cols = [5]int{n, n, m, m, n}[i], [5]int{n, n, n, m, n}[i]
	return rows, cols, f.blk[off : off+rows*cols : off+rows*cols]
}

// over returns a matrix header over the block's i-th matrix. Only the mat
// path keeps headers (in its scratch); an accessor builds the ones it
// needs for the length of its call and caches none, so a reader (a
// checkpoint, a snapshot) writes nothing.
func (f *Filter) over(i int) mat.Matrix { return mat.Over(f.part(i)) }

// x returns the state estimate, the block's tail.
func (f *Filter) x() []float64 { return f.blk[len(f.blk)-int(f.n):] }

// scratch is everything the mat path reads and writes besides the block,
// preallocated so its hot loop runs without garbage. Only a filter whose
// shape has no kernel owns one, from its first predict or update on
// (Filter.scratch): a filter that is only read — a spec's prototype, an
// archive mark — owns none.
type scratch struct {
	hdr    [5]mat.Matrix // F, Q, H, R, P over the block
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

// scratch returns the mat path's scratch, built on first use.
func (f *Filter) scratch() *scratch {
	if f.g == nil {
		f.g = newScratch(f)
	}
	return f.g
}

func newScratch(f *Filter) *scratch {
	n, m := f.StateDim(), f.ObsDim()
	g := &scratch{
		xNext:  make([]float64, n),
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
	for i := range g.hdr {
		g.hdr[i] = f.over(i)
	}
	g.ft, g.ht = mat.Transpose(&g.hdr[partF]), mat.Transpose(&g.hdr[partH])
	return g
}

// noCopy makes go vet's copylocks check flag a Filter copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewFilter constructs a filter for model with initial state x0 and
// initial covariance p0. The model and inputs are deep-copied, so a source
// and a server can construct byte-identical replicas from the same spec.
func NewFilter(model *Model, x0 []float64, p0 *mat.Matrix) (*Filter, error) {
	f := new(Filter)
	if err := InitFilter(f, nil, model, x0, p0); err != nil {
		return nil, err
	}
	return f, nil
}

// InitFilter is NewFilter into caller-owned storage: f, and blk for the
// block when its length is the block's (otherwise one is allocated), so
// a filter and its block can share their owner's allocation. f must be a
// zero Filter.
func InitFilter(f *Filter, blk []float64, model *Model, x0 []float64, p0 *mat.Matrix) error {
	if err := model.Validate(); err != nil {
		return err
	}
	n, m := model.StateDim(), model.ObsDim()
	if len(x0) != n {
		return fmt.Errorf("kalman: initial state has length %d, want %d", len(x0), n)
	}
	if p0.Rows() != n || p0.Cols() != n {
		return fmt.Errorf("kalman: initial covariance is %d×%d, want %d×%d", p0.Rows(), p0.Cols(), n, n)
	}
	if size := 3*n*n + m*n + m*m + n; len(blk) != size {
		blk = make([]float64, size)
	}
	f.blk, f.shape, f.n, f.m, f.name = blk, shapeOf(n, m), int32(n), int32(m), model.Name
	rest := f.blk
	for _, src := range [5]*mat.Matrix{model.F, model.Q, model.H, model.R, p0} {
		rest = rest[copy(rest, src.Raw()):]
	}
	copy(rest, x0)
	return nil
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
func (f *Filter) Model() *Model {
	return &Model{Name: f.name, F: mat.FromSlice(f.part(partF)), Q: mat.FromSlice(f.part(partQ)),
		H: mat.FromSlice(f.part(partH)), R: mat.FromSlice(f.part(partR))}
}

// StateDim returns the model's state dimension without copying the model.
func (f *Filter) StateDim() int { return int(f.n) }

// ObsDim returns the model's observation dimension without copying the
// model. Hot paths must use this rather than Model().ObsDim(): Model
// deep-copies four matrices to protect the filter's internals, which is
// exactly wrong for a per-tick dimension check.
func (f *Filter) ObsDim() int { return int(f.m) }

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
	g := f.scratch()
	fm, q, p, x := &g.hdr[partF], &g.hdr[partQ], &g.hdr[partP], f.x()
	mat.MulVecTo(g.xNext, fm, x)
	copy(x, g.xNext)

	mat.MulTo(g.tmpNN, fm, p)          // F·P
	mat.MulTo(g.tmpNN2, g.tmpNN, g.ft) // F·P·Fᵀ
	mat.AddTo(p, g.tmpNN2, q)          // + Q
	mat.Symmetrize(p)
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
	if len(z) != int(f.m) {
		return fmt.Errorf("kalman: observation has length %d, want %d", len(z), f.m)
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
	g := f.scratch()
	h, r, p, x := &g.hdr[partH], &g.hdr[partR], &g.hdr[partP], f.x()
	// Innovation y = z − H·x.
	mat.MulVecTo(g.hx, h, x)
	for i := range g.innov {
		g.innov[i] = z[i] - g.hx[i]
	}
	// S = H·P·Hᵀ + R.
	mat.MulTo(g.tmpMN, h, p)          // H·P
	mat.MulTo(g.tmpMM, g.tmpMN, g.ht) // H·P·Hᵀ
	mat.AddTo(g.sMM, g.tmpMM, r)      // + R
	if err := mat.InverseTo(g.sInv, g.sWork, g.sMM); err != nil {
		return err
	}
	// K = P·Hᵀ·S⁻¹.
	mat.MulTo(g.tmpNM, p, g.ht)
	mat.MulTo(g.gain, g.tmpNM, g.sInv)
	// x ← x + K·y.
	mat.MulVecTo(g.ky, g.gain, g.innov)
	for i := range x {
		x[i] += g.ky[i]
	}
	// Joseph form: P ← (I−KH)·P·(I−KH)ᵀ + K·R·Kᵀ, built entirely in
	// scratch: K·H lands in tmpNN, (I−KH)ᵀ reuses tmpNN afterwards, and
	// the transposed gain borrows tmpMN (both free by this point).
	g.ikh.SetIdentity()
	mat.MulTo(g.tmpNN, g.gain, h)    // K·H
	mat.SubTo(g.ikh, g.ikh, g.tmpNN) // I − K·H
	mat.MulTo(g.tmpNN2, g.ikh, p)    // (I−KH)·P
	mat.TransposeTo(g.tmpNN, g.ikh)  // (I−KH)ᵀ
	mat.MulTo(g.leftNN, g.tmpNN2, g.tmpNN)
	mat.MulTo(g.tmpNM, g.gain, r)    // K·R
	mat.TransposeTo(g.tmpMN, g.gain) // Kᵀ
	mat.MulTo(g.krkNN, g.tmpNM, g.tmpMN)
	mat.AddTo(p, g.leftNN, g.krkNN)
	mat.Symmetrize(p)
	return nil
}

// State returns a copy of the current state estimate.
func (f *Filter) State() []float64 { return mat.VecClone(f.x()) }

// Covariance returns a copy of the current estimate covariance.
func (f *Filter) Covariance() *mat.Matrix { return mat.FromSlice(f.part(partP)) }

// AppendSnapshot appends the filter's state estimate and its covariance
// (row-major) to dst and returns the extended slice: the layout Restore
// reads back, with no copy in between.
func (f *Filter) AppendSnapshot(dst []float64) []float64 {
	_, _, p := f.part(partP)
	return append(append(dst, f.x()...), p...)
}

// Restore overwrites the state estimate and covariance from state, laid
// out as AppendSnapshot writes them (x, then P row-major) — its inverse,
// copied straight into the block with no allocation. A state of the wrong
// length is refused before anything moves.
func (f *Filter) Restore(state []float64) error {
	n := int(f.n)
	if len(state) != n+n*n {
		return fmt.Errorf("kalman: filter snapshot has %d values, want %d", len(state), n+n*n)
	}
	_, _, p := f.part(partP)
	copy(f.x(), state[:n])
	copy(p, state[n:])
	return nil
}

// setPart overwrites the block's i-th matrix with src, which must have
// its dimensions.
func (f *Filter) setPart(i int, what string, src *mat.Matrix) error {
	rows, cols, data := f.part(i)
	if src.Rows() != rows || src.Cols() != cols {
		return fmt.Errorf("kalman: %s is %d×%d, want %d×%d", what, src.Rows(), src.Cols(), rows, cols)
	}
	copy(data, src.Raw())
	return nil
}

// ObservationInto writes H·x, k time updates on (none for k ≤ 0), into
// dst, which must have length ObsDim, and returns dst. Only x steps, on a
// copy — on the stack for a state of dimension ≤ 8 — in one MulVecTo loop
// for every shape, as each kernel's x update is MulVecTo's arithmetic; H·x
// never reads P. So it writes nothing but dst, and gives the bits
// PredictN(k) followed by ObservationInto(0, dst) would.
func (f *Filter) ObservationInto(k int64, dst []float64) []float64 {
	x := f.x()
	if n := len(x); k > 0 {
		var buf [16]float64
		xs := append(append(buf[:0], x...), x...)
		fm, next := f.over(partF), xs[n:]
		for x = xs[:n]; k > 0; k-- {
			mat.MulVecTo(next, &fm, x)
			x, next = next, x
		}
	}
	switch f.shape {
	case shape1x1:
		dst[0] = observe1x1(f.blk, x)
	case shape2x1:
		dst[0] = observe2x1(f.blk, x)
	default:
		h := f.over(partH)
		mat.MulVecTo(dst, &h, x)
	}
	return dst
}

// ObservationVariance returns the predictive variance of each observation
// component: diag(H·P·Hᵀ + R). This is the filter's own uncertainty about
// the next measurement, the basis for probabilistic answers.
func (f *Filter) ObservationVariance() []float64 {
	s := f.innovationCov()
	out := make([]float64, f.m)
	for i := range out {
		out[i] = s.At(i, i)
	}
	return out
}

// Innovation returns the pre-update innovation y = z − H·x and its
// covariance S = H·P·Hᵀ + R for a candidate observation z, without
// mutating the filter.
func (f *Filter) Innovation(z []float64) ([]float64, *mat.Matrix, error) {
	if len(z) != int(f.m) {
		return nil, nil, fmt.Errorf("kalman: observation has length %d, want %d", len(z), f.m)
	}
	h := f.over(partH)
	y := mat.VecSub(z, mat.MulVec(&h, f.x()))
	return y, f.innovationCov(), nil
}

// innovationCov returns S = H·P·Hᵀ + R.
func (f *Filter) innovationCov() *mat.Matrix {
	h, p, r := f.over(partH), f.over(partP), f.over(partR)
	return mat.Add(mat.Mul3(&h, &p, mat.Transpose(&h)), &r)
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
	m := float64(f.m)
	return -0.5 * (m*math.Log(2*math.Pi) + math.Log(det) + mat.QuadraticForm(sInv, y)), nil
}

// Ticks returns the number of time updates performed on the filter itself
// (PredictN's); a look-ahead (ObservationInto) steps a copy and counts none.
func (f *Filter) Ticks() uint64 { return f.ticks }

// Updates returns the number of Update calls performed.
func (f *Filter) Updates() uint64 { return f.updates }

// Clone returns an independent deep copy of the filter, preserving state,
// covariance, and counters.
func (f *Filter) Clone() *Filter {
	c := new(Filter)
	f.CloneInto(c, nil)
	return c
}

// CloneInto is Clone into caller-owned storage, as InitFilter does: dst, a
// zero Filter, and blk for the block when its length is the block's. The
// clone shares no scratch with f: it builds its own on its first update.
func (f *Filter) CloneInto(dst *Filter, blk []float64) {
	if len(blk) != len(f.blk) {
		blk = make([]float64, len(f.blk))
	}
	copy(blk, f.blk)
	dst.blk, dst.shape, dst.n, dst.m, dst.ticks, dst.updates, dst.name = blk, f.shape, f.n, f.m, f.ticks, f.updates, f.name
}

// SetNoise replaces the process and/or measurement noise covariances.
// Either argument may be nil to leave the corresponding matrix untouched.
// Used by the adaptive layer.
func (f *Filter) SetNoise(q, r *mat.Matrix) error {
	if q != nil {
		if err := f.setPart(partQ, "Q", q); err != nil {
			return err
		}
	}
	if r != nil {
		return f.setPart(partR, "R", r)
	}
	return nil
}
