// Package mat implements dense matrix and vector arithmetic for small
// matrices (state dimensions up to a few dozen), as needed by the Kalman
// filter machinery in this repository.
//
// The package is deliberately self-contained and allocation-conscious:
// every operation has an in-place variant taking a destination receiver so
// hot filter loops can run without garbage. Matrices are stored row-major
// in a single backing slice.
//
// Dimension mismatches are programming errors, not data errors, so they
// panic (as the standard library does for out-of-range slice indexing).
// The data-dependent failure, a singular matrix, returns an error.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a matrix inversion encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromSlice returns an r×c matrix initialized from data in row-major
// order. The slice is copied.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice got %d values for a %d×%d matrix", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with the given values on the diagonal.
func Diag(values ...float64) *Matrix {
	m := New(len(values), len(values))
	for i, v := range values {
		m.Set(i, i, v)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(dimErr("CopyFrom", m, src))
	}
	copy(m.data, src.data)
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// SetIdentity overwrites the square matrix m with the identity.
func (m *Matrix) SetIdentity() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: SetIdentity on non-square %d×%d matrix", m.rows, m.cols))
	}
	m.Zero()
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// Raw returns the backing slice in row-major order. Mutating it mutates
// the matrix; callers that need isolation should Clone first.
func (m *Matrix) Raw() []float64 { return m.data }

func dimErr(op string, a, b *Matrix) string {
	return fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, a.rows, a.cols, b.rows, b.cols)
}

// AddTo stores a + b into dst. All three must share dimensions. dst may
// alias a or b.
func AddTo(dst, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr("Add", a, b))
	}
	if dst.rows != a.rows || dst.cols != a.cols {
		panic(dimErr("Add dst", dst, a))
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// Add returns a + b as a new matrix.
func Add(a, b *Matrix) *Matrix {
	dst := New(a.rows, a.cols)
	AddTo(dst, a, b)
	return dst
}

// SubTo stores a − b into dst. dst may alias a or b.
func SubTo(dst, a, b *Matrix) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr("Sub", a, b))
	}
	if dst.rows != a.rows || dst.cols != a.cols {
		panic(dimErr("Sub dst", dst, a))
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

// Sub returns a − b as a new matrix.
func Sub(a, b *Matrix) *Matrix {
	dst := New(a.rows, a.cols)
	SubTo(dst, a, b)
	return dst
}

// ScaleTo stores s·a into dst. dst may alias a.
func ScaleTo(dst *Matrix, s float64, a *Matrix) {
	if dst.rows != a.rows || dst.cols != a.cols {
		panic(dimErr("Scale dst", dst, a))
	}
	for i := range dst.data {
		dst.data[i] = s * a.data[i]
	}
}

// Scale returns s·a as a new matrix.
func Scale(s float64, a *Matrix) *Matrix {
	dst := New(a.rows, a.cols)
	ScaleTo(dst, s, a)
	return dst
}

// MulTo stores a·b into dst. dst must not alias a or b (aliasing is
// detected and panics, since silent corruption is worse).
func MulTo(dst, a, b *Matrix) {
	if a.cols != b.rows {
		panic(dimErr("Mul", a, b))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: Mul dst is %d×%d, want %d×%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		panic("mat: MulTo destination aliases an operand")
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func sameBacking(a, b *Matrix) bool {
	return len(a.data) > 0 && len(b.data) > 0 && &a.data[0] == &b.data[0]
}

// Mul returns a·b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	dst := New(a.rows, b.cols)
	MulTo(dst, a, b)
	return dst
}

// Mul3 returns a·b·c, choosing the cheaper association order.
func Mul3(a, b, c *Matrix) *Matrix {
	// Cost of (ab)c vs a(bc) in scalar multiplications.
	left := a.rows*a.cols*b.cols + a.rows*b.cols*c.cols
	right := b.rows*b.cols*c.cols + a.rows*a.cols*c.cols
	if left <= right {
		return Mul(Mul(a, b), c)
	}
	return Mul(a, Mul(b, c))
}

// TransposeTo stores aᵀ into dst. dst must not alias a unless a is
// square and dst == a (in-place square transpose is supported).
func TransposeTo(dst, a *Matrix) {
	if dst.rows != a.cols || dst.cols != a.rows {
		panic(fmt.Sprintf("mat: Transpose dst is %d×%d, want %d×%d", dst.rows, dst.cols, a.cols, a.rows))
	}
	if sameBacking(dst, a) {
		if a.rows != a.cols {
			panic("mat: in-place transpose requires a square matrix")
		}
		for i := 0; i < a.rows; i++ {
			for j := i + 1; j < a.cols; j++ {
				vij, vji := a.At(i, j), a.At(j, i)
				a.Set(i, j, vji)
				a.Set(j, i, vij)
			}
		}
		return
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
}

// Transpose returns aᵀ as a new matrix.
func Transpose(a *Matrix) *Matrix {
	dst := New(a.cols, a.rows)
	TransposeTo(dst, a)
	return dst
}

// MulVec returns a·x for a column vector x (len(x) == a.Cols()).
func MulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.rows)
	MulVecTo(out, a, x)
	return out
}

// MulVecTo stores a·x into dst. dst must not alias x.
func MulVecTo(dst []float64, a *Matrix, x []float64) {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MulVec vector length %d, want %d", len(x), a.cols))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVec dst length %d, want %d", len(dst), a.rows))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Inverse returns a⁻¹ computed by Gauss–Jordan elimination with partial
// pivoting. Returns ErrSingular when a pivot collapses below tolerance.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Inverse of non-square %d×%d matrix", a.rows, a.cols))
	}
	n := a.rows
	inv, work := New(n, n), New(n, n)
	if err := InverseTo(inv, work, a); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseTo stores a⁻¹ into dst using work as scratch (both must be
// square with a's dimensions and must not alias a or each other). The
// allocation-free form of Inverse for preallocated hot paths. On a
// singular a, dst and work are left in an unspecified state.
func InverseTo(dst, work, a *Matrix) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Inverse of non-square %d×%d matrix", a.rows, a.cols))
	}
	n := a.rows
	if dst.rows != n || dst.cols != n || work.rows != n || work.cols != n {
		panic(fmt.Sprintf("mat: InverseTo dst/work must be %d×%d", n, n))
	}
	if sameBacking(dst, a) || sameBacking(work, a) || sameBacking(dst, work) {
		panic("mat: InverseTo destination aliases an operand")
	}
	// Augment [a | I] and reduce.
	work.CopyFrom(a)
	dst.SetIdentity()
	inv := dst
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest |value| in this column at or
		// below the diagonal.
		pivot := col
		maxAbs := math.Abs(work.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(work.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-14 {
			return ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := work.At(col, col)
		scaleRow(work, col, 1/p)
		scaleRow(inv, col, 1/p)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(work, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(m *Matrix, i int, s float64) {
	row := m.data[i*m.cols : (i+1)*m.cols]
	for k := range row {
		row[k] *= s
	}
}

// axpyRow adds f times row j to row i.
func axpyRow(m *Matrix, i, j int, f float64) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k] += f * rj[k]
	}
}

// Det returns the determinant of a square matrix via LU decomposition.
func Det(a *Matrix) float64 {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Det of non-square %d×%d matrix", a.rows, a.cols))
	}
	n := a.rows
	lu := a.Clone()
	det := 1.0
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs == 0 {
			return 0
		}
		if pivot != col {
			swapRows(lu, pivot, col)
			det = -det
		}
		d := lu.At(col, col)
		det *= d
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / d
			for c := col; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-f*lu.At(col, c))
			}
		}
	}
	return det
}

// Trace returns the sum of diagonal elements of a square matrix.
func Trace(a *Matrix) float64 {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Trace of non-square %d×%d matrix", a.rows, a.cols))
	}
	var s float64
	for i := 0; i < a.rows; i++ {
		s += a.At(i, i)
	}
	return s
}

// Symmetrize replaces a with (a + aᵀ)/2, restoring exact symmetry lost to
// floating-point round-off. a must be square.
func Symmetrize(a *Matrix) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Symmetrize of non-square %d×%d matrix", a.rows, a.cols))
	}
	for i := 0; i < a.rows; i++ {
		for j := i + 1; j < a.cols; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
}

// QuadraticForm returns xᵀ·a·x.
func QuadraticForm(a *Matrix, x []float64) float64 {
	ax := MulVec(a, x)
	var s float64
	for i, v := range x {
		s += v * ax[i]
	}
	return s
}

// EqualApprox reports whether a and b have the same shape and every
// element pair differs by at most tol.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(a *Matrix) float64 {
	var m float64
	for _, v := range a.data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteString("]")
		if i < m.rows-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Over returns an r×c matrix header over data itself, row-major and not
// copied, by value: a caller that lays several small matrices out in one
// block (the Kalman filter's F, Q, H, R, P) holds the headers in place
// and pays one allocation for all of them.
func Over(r, c int, data []float64) Matrix {
	if r <= 0 || c <= 0 || len(data) != r*c {
		panic(fmt.Sprintf("mat: Over got %d values for a %d×%d matrix", len(data), r, c))
	}
	return Matrix{rows: r, cols: c, data: data}
}
