package stream

import (
	"math"
	"testing"
	"testing/quick"
)

// moments returns the range, mean and population standard deviation of
// component 0 of a non-empty recording.
func moments(pts []Point) (lo, hi, mean, std float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		v := p.Value[0]
		lo, hi, mean = math.Min(lo, v), math.Max(hi, v), mean+v
	}
	mean /= float64(len(pts))
	for _, p := range pts {
		std += (p.Value[0] - mean) * (p.Value[0] - mean)
	}
	return lo, hi, mean, math.Sqrt(std / float64(len(pts)))
}

func TestGeneratorsProduceExactlyN(t *testing.T) {
	const n = 500
	streams := []Stream{
		NewRandomWalk(1, 0, 1, 0.1, n),
		NewLinearDrift(2, 0, 0.5, 0.1, n),
		NewSine(3, 0, 10, 100, 0, 0.1, n),
		NewOU(4, 50, 0.05, 1, 0.1, n),
		NewRegimeSwitching(5, 100, 0.1, n),
		NewNetworkLoad(6, n),
		NewGBM(7, 100, 0.0001, 0.01, 0, n),
		NewWaypoint2D(8, 1000, 1, 5, 0.5, 10, n),
	}
	for _, s := range streams {
		pts := Record(s)
		if len(pts) != n {
			t.Errorf("%s produced %d points, want %d", s.Name(), len(pts), n)
			continue
		}
		for i, p := range pts {
			if p.Tick != int64(i) {
				t.Errorf("%s tick %d has Tick=%d", s.Name(), i, p.Tick)
				break
			}
			if len(p.Value) != s.Dim() {
				t.Errorf("%s dim mismatch: point has %d, stream says %d", s.Name(), len(p.Value), s.Dim())
				break
			}
			for _, v := range p.Value {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s produced non-finite value at tick %d", s.Name(), i)
				}
			}
		}
		// Exhausted stream keeps returning ok=false.
		if _, ok := s.Next(); ok {
			t.Errorf("%s yielded a point past its length", s.Name())
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	mk := func() []Point { return Record(NewRandomWalk(42, 0, 1, 0.5, 200)) }
	a, b := mk(), mk()
	for i := range a {
		if a[i].Value[0] != b[i].Value[0] {
			t.Fatalf("same seed diverged at tick %d", i)
		}
	}
	c := Record(NewRandomWalk(43, 0, 1, 0.5, 200))
	same := true
	for i := range a {
		if a[i].Value[0] != c[i].Value[0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestLinearDriftIsExactWithoutNoise(t *testing.T) {
	pts := Record(NewLinearDrift(1, 10, 2, 0, 5))
	for i, p := range pts {
		want := 10 + 2*float64(i+1)
		if p.Value[0] != want {
			t.Fatalf("tick %d = %v, want %v", i, p.Value[0], want)
		}
		if p.Truth[0] != want {
			t.Fatalf("truth at tick %d = %v, want %v", i, p.Truth[0], want)
		}
	}
}

func TestSinePeriodicity(t *testing.T) {
	pts := Record(NewSine(1, 5, 3, 50, 0, 0, 200))
	for i := 0; i+50 < len(pts); i++ {
		if math.Abs(pts[i].Truth[0]-pts[i+50].Truth[0]) > 1e-9 {
			t.Fatalf("sine not periodic at tick %d", i)
		}
	}
	lo, hi, mean, _ := moments(pts)
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("sine mean %v, want ≈5", mean)
	}
	if hi > 8.01 || lo < 1.99 {
		t.Fatalf("sine range [%v, %v], want ⊂ [2, 8]", lo, hi)
	}
}

func TestOUMeanReverts(t *testing.T) {
	pts := Record(NewOU(9, 100, 0.1, 1, 0, 20000))
	_, _, mean, std := moments(pts)
	if math.Abs(mean-100) > 2 {
		t.Fatalf("OU mean %v, want ≈100", mean)
	}
	// Stationary std ≈ σ/√(2θ−θ²) ≈ σ/√(2θ) for small θ.
	wantStd := 1 / math.Sqrt(2*0.1)
	if std < wantStd/2 || std > wantStd*2 {
		t.Fatalf("OU std %v, want ≈%v", std, wantStd)
	}
	// A step is σ·noise plus the pull −θ·(x−μ): diff std
	// √(σ² + θ²·Var x) ≈ 1.03 for σ = 1.
	if v := Volatility(pts, 0); v < 0.95 || v > 1.15 {
		t.Fatalf("OU volatility %v, want ≈1.03", v)
	}
}

func TestNetworkLoadNonNegativeAndBursty(t *testing.T) {
	pts := Record(NewNetworkLoad(3, 20000))
	lo, hi, _, _ := moments(pts)
	if lo < 0 {
		t.Fatalf("network load went negative: %v", lo)
	}
	// Bursts must push the max well above the periodic envelope
	// (baseline 100 + 40 + 8 + jitter).
	if hi < 160 {
		t.Fatalf("network load max %v shows no bursts", hi)
	}
}

func TestGBMStaysPositive(t *testing.T) {
	pts := Record(NewGBM(5, 100, 0, 0.02, 0, 50000))
	for _, p := range pts {
		if p.Truth[0] <= 0 {
			t.Fatalf("GBM hit non-positive price %v at tick %d", p.Truth[0], p.Tick)
		}
	}
}

func TestWaypointStaysInArenaAndRespectsSpeed(t *testing.T) {
	arena, maxSpeed := 500.0, 4.0
	pts := Record(NewWaypoint2D(6, arena, 1, maxSpeed, 0, 5, 5000))
	for i, p := range pts {
		x, y := p.Truth[0], p.Truth[1]
		if x < 0 || x > arena || y < 0 || y > arena {
			t.Fatalf("tick %d escaped arena: (%v, %v)", i, x, y)
		}
		if i > 0 {
			dx := x - pts[i-1].Truth[0]
			dy := y - pts[i-1].Truth[1]
			if math.Hypot(dx, dy) > maxSpeed+1e-9 {
				t.Fatalf("tick %d moved %v > max speed %v", i, math.Hypot(dx, dy), maxSpeed)
			}
		}
	}
}

func TestRegimeSwitchingChangesBehaviour(t *testing.T) {
	pts := Record(NewRegimeSwitching(7, 200, 0, 4000))
	// Heuristic: across segments, per-segment mean drift should differ —
	// the stream is not one homogeneous process. Compare drift across
	// segment windows.
	var drifts []float64
	for s := 0; s+200 <= len(pts); s += 200 {
		d := pts[s+199].Value[0] - pts[s].Value[0]
		drifts = append(drifts, d)
	}
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for _, d := range drifts {
		min = math.Min(min, d)
		max = math.Max(max, d)
	}
	if max-min < 10 {
		t.Fatalf("regime switching looks homogeneous: drift spread %v", max-min)
	}
}

func TestCompositeSumsParts(t *testing.T) {
	a := NewLinearDrift(1, 0, 1, 0, 10)
	b := NewLinearDrift(2, 100, 2, 0, 10)
	c := NewComposite("combo", 3, 0, a, b)
	pts := Record(c)
	if len(pts) != 10 {
		t.Fatalf("composite produced %d points", len(pts))
	}
	for i, p := range pts {
		want := (0 + 1*float64(i+1)) + (100 + 2*float64(i+1))
		if math.Abs(p.Value[0]-want) > 1e-9 {
			t.Fatalf("composite tick %d = %v, want %v", i, p.Value[0], want)
		}
	}
}

func TestCompositePanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch accepted")
		}
	}()
	NewComposite("bad", 1, 0, NewRandomWalk(1, 0, 1, 0, 5), NewWaypoint2D(2, 10, 1, 2, 0, 0, 5))
}

func TestReplayRoundTrip(t *testing.T) {
	orig := Record(NewRandomWalk(11, 0, 1, 0.2, 100))
	rp := Replay("replayed", 1, orig)
	if rp.Name() != "replayed" || rp.Dim() != 1 {
		t.Fatal("replay metadata wrong")
	}
	got := Record(rp)
	if len(got) != len(orig) {
		t.Fatalf("replay length %d, want %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].Value[0] != orig[i].Value[0] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestVolatility(t *testing.T) {
	// A ramp has zero diff variance.
	ramp := Record(NewLinearDrift(1, 0, 3, 0, 100))
	if v := Volatility(ramp, 0); v > 1e-12 {
		t.Fatalf("ramp volatility %v, want 0", v)
	}
	// A random walk with stepStd 2 has diff std ≈ 2.
	walk := Record(NewRandomWalk(2, 0, 2, 0, 20000))
	if v := Volatility(walk, 0); v < 1.8 || v > 2.2 {
		t.Fatalf("walk volatility %v, want ≈2", v)
	}
	if Volatility(nil, 0) != 0 {
		t.Fatal("empty volatility not 0")
	}
}

func TestValues(t *testing.T) {
	pts := []Point{{Value: []float64{1, 2}}, {Value: []float64{3, 4}}}
	if got := Values(pts, 1); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Values = %v", got)
	}
}

func TestPropVolatilityScaleInvariance(t *testing.T) {
	// Scaling a stream by c scales volatility by |c|.
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 0.5 + float64(scaleRaw)/32 // [0.5, 8.5)
		pts := Record(NewRandomWalk(seed, 0, 1, 0, 500))
		scaled := make([]Point, len(pts))
		for i, p := range pts {
			scaled[i] = Point{Tick: p.Tick, Value: []float64{p.Value[0] * scale}}
		}
		v1, v2 := Volatility(pts, 0), Volatility(scaled, 0)
		return math.Abs(v2-scale*v1) < 1e-9*math.Max(1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
