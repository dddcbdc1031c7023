package kalman

import (
	"math"

	"kalmanstream/internal/mat"
)

// Kernels: PredictN, H·x and Update for the shapes worth hard-coding,
// unrolled over locals loaded from the filter's block. Each mirrors the
// mat path operation for operation, so its results are bit-identical and
// replicas built from one spec stay in lock-step whichever path either
// runs.
// DESIGN.md, "Numerics: kernels and the generic path", lists what that
// means; in short: every product accumulates into a 0-initialized sum in
// the statement form `acc += a * b` the mat loops use (so a compiler that
// fuses one path fuses the other), MulTo skips a zero left operand and
// MulVecTo does not, I − K·H is 1 − x and 0 − x (never −x), a 1×1 inverse
// is the |s| < 1e-14 test and 1·(1/s), and Symmetrize is (a + b)/2.
// TestKernelBitIdentical is the gate that admits a shape.

// predict1x1 is k time updates of a 1-state/1-observation filter.
// Symmetrize is a no-op at 1×1, and Fᵀ = F.
func (f *Filter) predict1x1(k int64) {
	b := (*[6]float64)(f.blk) // F Q H R P x
	fv, q, p, x := b[0], b[1], b[4], b[5]
	for ; k > 0; k-- {
		var xn float64
		xn += fv * x // MulVecTo: 0 + F·x
		x = xn

		var fp float64
		if fv != 0 { // MulTo skips zero left operands
			fp += fv * p
		}
		var fpf float64
		if fp != 0 {
			fpf += fp * fv
		}
		p = fpf + q
	}
	b[4], b[5] = p, x
}

// update1x1 is the measurement update of a 1-state/1-observation filter.
func (f *Filter) update1x1(z float64) error {
	b := (*[6]float64)(f.blk) // F Q H R P x
	h, r, p, x := b[2], b[3], b[4], b[5]
	var hx float64
	hx += h * x // MulVecTo: 0 + H·x
	y := z - hx
	// S = H·P·Hᵀ + R via two MulTo steps.
	var hp float64
	if h != 0 {
		hp += h * p
	}
	var hph float64
	if hp != 0 {
		hph += hp * h
	}
	s := hph + r
	if math.Abs(s) < 1e-14 {
		return mat.ErrSingular
	}
	sInv := 1 * (1 / s) // InverseTo: identity row scaled by 1/pivot
	// K = P·Hᵀ·S⁻¹.
	var ph float64
	if p != 0 {
		ph += p * h
	}
	var k float64
	if ph != 0 {
		k += ph * sInv
	}
	// x ← x + K·y.
	var ky float64
	ky += k * y
	b[5] = x + ky
	// Joseph form at 1×1: P ← (1−kh)·P·(1−kh) + k·R·k.
	var kh float64
	if k != 0 {
		kh += k * h
	}
	ikh := 1 - kh
	var ip float64
	if ikh != 0 {
		ip += ikh * p
	}
	var left float64
	if ip != 0 {
		left += ip * ikh
	}
	var kr float64
	if k != 0 {
		kr += k * r
	}
	var krk float64
	if kr != 0 {
		krk += kr * k
	}
	b[4] = left + krk
	return nil
}

// observe1x1 is H·x of a 1-state/1-observation filter's block for state x.
func observe1x1(blk, x []float64) float64 {
	var hx float64
	hx += blk[2] * x[0] // MulVecTo: 0 + H·x
	return hx
}

// observe2x1 is H·x of a 2-state/1-observation filter's block for state x.
func observe2x1(blk, x []float64) float64 {
	b := (*[17]float64)(blk) // F(4) Q(4) H(2) R P(4) x(2)
	var hx float64
	hx += b[8] * x[0] // MulVecTo: 0 + H·x, no zero skip
	hx += b[9] * x[1]
	return hx
}

// apat2 is A·P·Aᵀ at 2×2 as the mat path forms it — MulTo(A, P), then
// MulTo of that with the transpose — which both the time update (A = F)
// and the Joseph form (A = I − K·H) need.
func apat2(a00, a01, a10, a11, p00, p01, p10, p11 float64) (r00, r01, r10, r11 float64) {
	var t00, t01, t10, t11 float64 // A·P
	if a00 != 0 {
		t00 += a00 * p00
		t01 += a00 * p01
	}
	if a01 != 0 {
		t00 += a01 * p10
		t01 += a01 * p11
	}
	if a10 != 0 {
		t10 += a10 * p00
		t11 += a10 * p01
	}
	if a11 != 0 {
		t10 += a11 * p10
		t11 += a11 * p11
	}
	// (A·P)·Aᵀ: row k of Aᵀ is column k of A.
	if t00 != 0 {
		r00 += t00 * a00
		r01 += t00 * a10
	}
	if t01 != 0 {
		r00 += t01 * a01
		r01 += t01 * a11
	}
	if t10 != 0 {
		r10 += t10 * a00
		r11 += t10 * a10
	}
	if t11 != 0 {
		r10 += t11 * a01
		r11 += t11 * a11
	}
	return r00, r01, r10, r11
}

// predict2x1 is k time updates of a 2-state/1-observation filter
// (ConstantVelocity).
func (f *Filter) predict2x1(k int64) {
	b := (*[17]float64)(f.blk) // F(4) Q(4) H(2) R P(4) x(2)
	f00, f01, f10, f11 := b[0], b[1], b[2], b[3]
	q00, q01, q10, q11 := b[4], b[5], b[6], b[7]
	p00, p01, p10, p11 := b[11], b[12], b[13], b[14]
	x0, x1 := b[15], b[16]
	for ; k > 0; k-- {
		var n0, n1 float64 // MulVecTo: no zero skip
		n0 += f00 * x0
		n0 += f01 * x1
		n1 += f10 * x0
		n1 += f11 * x1
		x0, x1 = n0, n1

		p00, p01, p10, p11 = apat2(f00, f01, f10, f11, p00, p01, p10, p11)
		p00 = p00 + q00
		p01 = p01 + q01
		p10 = p10 + q10
		p11 = p11 + q11
		v := (p01 + p10) / 2
		p01, p10 = v, v
	}
	b[11], b[12], b[13], b[14] = p00, p01, p10, p11
	b[15], b[16] = x0, x1
}

// update2x1 is the measurement update of a 2-state/1-observation filter.
func (f *Filter) update2x1(z float64) error {
	b := (*[17]float64)(f.blk) // F(4) Q(4) H(2) R P(4) x(2)
	h0, h1, r := b[8], b[9], b[10]
	p00, p01, p10, p11 := b[11], b[12], b[13], b[14]
	x0, x1 := b[15], b[16]

	var hx float64 // MulVecTo: no zero skip
	hx += h0 * x0
	hx += h1 * x1
	y := z - hx
	// S = H·P·Hᵀ + R.
	var hp0, hp1 float64
	if h0 != 0 {
		hp0 += h0 * p00
		hp1 += h0 * p01
	}
	if h1 != 0 {
		hp0 += h1 * p10
		hp1 += h1 * p11
	}
	var hph float64
	if hp0 != 0 {
		hph += hp0 * h0
	}
	if hp1 != 0 {
		hph += hp1 * h1
	}
	s := hph + r
	if math.Abs(s) < 1e-14 {
		return mat.ErrSingular
	}
	sInv := 1 * (1 / s) // InverseTo: identity row scaled by 1/pivot
	// K = P·Hᵀ·S⁻¹.
	var ph0, ph1 float64
	if p00 != 0 {
		ph0 += p00 * h0
	}
	if p01 != 0 {
		ph0 += p01 * h1
	}
	if p10 != 0 {
		ph1 += p10 * h0
	}
	if p11 != 0 {
		ph1 += p11 * h1
	}
	var k0, k1 float64
	if ph0 != 0 {
		k0 += ph0 * sInv
	}
	if ph1 != 0 {
		k1 += ph1 * sInv
	}
	// x ← x + K·y.
	var ky0, ky1 float64
	ky0 += k0 * y
	ky1 += k1 * y
	b[15], b[16] = x0+ky0, x1+ky1
	// Joseph form: P ← (I−KH)·P·(I−KH)ᵀ + K·R·Kᵀ.
	var kh00, kh01, kh10, kh11 float64
	if k0 != 0 {
		kh00 += k0 * h0
		kh01 += k0 * h1
	}
	if k1 != 0 {
		kh10 += k1 * h0
		kh11 += k1 * h1
	}
	l00, l01, l10, l11 := apat2(1-kh00, 0-kh01, 0-kh10, 1-kh11, p00, p01, p10, p11)
	var kr0, kr1 float64
	if k0 != 0 {
		kr0 += k0 * r
	}
	if k1 != 0 {
		kr1 += k1 * r
	}
	var c00, c01, c10, c11 float64 // K·R·Kᵀ
	if kr0 != 0 {
		c00 += kr0 * k0
		c01 += kr0 * k1
	}
	if kr1 != 0 {
		c10 += kr1 * k0
		c11 += kr1 * k1
	}
	v := ((l01 + c01) + (l10 + c10)) / 2
	b[11], b[12], b[13], b[14] = l00+c00, v, v, l11+c11
	return nil
}
