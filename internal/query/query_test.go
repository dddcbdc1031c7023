package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server/servertest"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
)

// fixture registers streams "a","b","c" with static replicas, δ as given,
// and corrects them to the given values.
func fixture(t *testing.T, values map[string]float64, deltas map[string]float64) (*servertest.Clock, *Engine) {
	t.Helper()
	srv := servertest.New()
	for id, v := range values {
		if err := srv.Register(id, predictor.Spec{Kind: predictor.KindStatic, Dim: 1}, deltas[id]); err != nil {
			t.Fatal(err)
		}
		srv.Tick()
		err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: 0, Value: []float64{v}})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Advance past the correction tick so queries see the δ-bounded
	// replica prediction rather than the exact just-shipped measurement.
	srv.Tick()
	return srv, New(srv.Server, srv.At)
}

func TestValue(t *testing.T) {
	_, e := fixture(t, map[string]float64{"a": 10}, map[string]float64{"a": 0.5})
	ans, err := e.Value("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 10 || ans.Bound != 0.5 {
		t.Fatalf("answer = %+v", ans)
	}
	if _, err := e.Value("nope", 0); err == nil {
		t.Fatal("unknown stream answered")
	}
	if _, err := e.Value("a", 3); err == nil {
		t.Fatal("out-of-range component answered")
	}
}

func TestSumAndAverage(t *testing.T) {
	_, e := fixture(t,
		map[string]float64{"a": 10, "b": 20, "c": 30},
		map[string]float64{"a": 1, "b": 2, "c": 3})
	ids := []string{"a", "b", "c"}
	s, err := e.Sum(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Estimate != 60 || s.Bound != 6 {
		t.Fatalf("sum = %+v", s)
	}
	avg, err := e.Average(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Estimate != 20 || avg.Bound != 2 {
		t.Fatalf("avg = %+v", avg)
	}
	if _, err := e.Sum(nil, 0); err == nil {
		t.Fatal("empty sum answered")
	}
	if _, err := e.Average(nil, 0); err == nil {
		t.Fatal("empty average answered")
	}
	if _, err := e.Sum([]string{"a", "nope"}, 0); err == nil {
		t.Fatal("sum with unknown stream answered")
	}
}

func TestMinMaxEnclosures(t *testing.T) {
	_, e := fixture(t,
		map[string]float64{"a": 10, "b": 12, "c": 30},
		map[string]float64{"a": 1, "b": 5, "c": 1})
	ids := []string{"a", "b", "c"}
	ans, iv, err := e.Min(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Min estimate: min(10, 12, 30) = 10.
	if ans.Estimate != 10 || ans.Bound != 1 {
		t.Fatalf("min answer = %+v", ans)
	}
	// Enclosure: lo = min(9, 7, 29) = 7; hi = min(11, 17, 31) = 11.
	if iv.Lo != 7 || iv.Hi != 11 {
		t.Fatalf("min interval = %+v", iv)
	}
	ansM, ivM, err := e.Max(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ansM.Estimate != 30 || ansM.Bound != 1 {
		t.Fatalf("max answer = %+v", ansM)
	}
	// lo = max(9, 7, 29) = 29; hi = max(11, 17, 31) = 31.
	if ivM.Lo != 29 || ivM.Hi != 31 {
		t.Fatalf("max interval = %+v", ivM)
	}
	if !iv.Contains(10) || iv.Contains(12) {
		t.Fatal("Interval.Contains wrong")
	}
	if iv.Hi-iv.Lo != 4 {
		t.Fatalf("interval %+v is not 4 wide", iv)
	}
	if _, _, err := e.Min(nil, 0); err == nil {
		t.Fatal("empty min answered")
	}
	if _, _, err := e.Max(nil, 0); err == nil {
		t.Fatal("empty max answered")
	}
	if _, _, err := e.Min([]string{"zz"}, 0); err == nil {
		t.Fatal("min over unknown stream answered")
	}
	if _, _, err := e.Max([]string{"zz"}, 0); err == nil {
		t.Fatal("max over unknown stream answered")
	}
}

func TestWithinTristate(t *testing.T) {
	_, e := fixture(t, map[string]float64{"a": 10}, map[string]float64{"a": 1})
	cases := []struct {
		lo, hi float64
		want   Tristate
	}{
		{0, 20, True},   // [9,11] ⊂ [0,20]
		{12, 20, False}, // [9,11] entirely below 12
		{0, 8.5, False}, // entirely above 8.5
		{10.5, 20, Unknown},
		{0, 10.5, Unknown},
	}
	for i, c := range cases {
		got, err := e.Within("a", 0, c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("case %d: Within [%v,%v] = %v, want %v", i, c.lo, c.hi, got, c.want)
		}
	}
	if _, err := e.Within("zz", 0, 0, 1); err == nil {
		t.Fatal("unknown stream answered")
	}
	if False.String() != "false" || True.String() != "true" || Unknown.String() != "unknown" {
		t.Fatal("tristate strings")
	}
}

func TestWindowAggregates(t *testing.T) {
	srv, e := fixture(t, map[string]float64{"a": 0}, map[string]float64{"a": 0.5})
	w, err := e.NewWindow("a", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Average(); err == nil {
		t.Fatal("empty window answered")
	}
	// Feed values 1, 2, 3, 4 — window keeps the last 3. Sampling happens
	// one tick after each correction, so each sample is a δ-bounded
	// prediction.
	for i, v := range []float64{1, 2, 3, 4} {
		srv.Tick()
		err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: int64(i + 1), Value: []float64{v}})
		if err != nil {
			t.Fatal(err)
		}
		srv.Tick()
		if err := w.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 3 {
		t.Fatalf("window len = %d", w.Len())
	}
	avg, err := w.Average()
	if err != nil {
		t.Fatal(err)
	}
	if avg.Estimate != 3 || avg.Bound != 0.5 {
		t.Fatalf("window avg = %+v", avg)
	}
	ans, iv, err := w.Max()
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 4 || iv.Lo != 3.5 || iv.Hi != 4.5 {
		t.Fatalf("window max = %+v %+v", ans, iv)
	}
	if _, err := e.NewWindow("a", 0, 0); err == nil {
		t.Fatal("zero-size window accepted")
	}
	if _, err := e.NewWindow("zz", 0, 3); err == nil {
		t.Fatal("window over unknown stream accepted")
	}
}

// TestPropAggregateBoundsHold is DESIGN.md invariant 6: drive a full
// multi-stream protocol simulation and verify after every tick that the
// composed SUM/AVG bounds enclose the true aggregates of the measurements.
func TestPropAggregateBoundsHold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nStreams := 2 + rng.Intn(5)
		srv := servertest.New()
		var srcs []*source.Source
		var gens []stream.Stream
		ids := make([]string, nStreams)
		for i := 0; i < nStreams; i++ {
			id := string(rune('a' + i))
			ids[i] = id
			spec := predictor.Spec{Kind: predictor.KindKalman,
				Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.2}}
			delta := 0.2 + rng.Float64()*3
			if err := srv.Register(id, spec, delta); err != nil {
				return false
			}
			link := netsim.NewLink(func(m *netsim.Message) { _ = srv.Apply(m) }, netsim.LinkConfig{})
			src, err := source.New(source.Config{StreamID: id, Spec: spec, Delta: delta}, link.Send)
			if err != nil {
				return false
			}
			srcs = append(srcs, src)
			gens = append(gens, stream.NewRandomWalk(seed+int64(i), rng.Float64()*100, 1, 0.1, 300))
		}
		eng := New(srv.Server, srv.At)
		for tick := 0; tick < 300; tick++ {
			srv.Tick()
			var trueSum float64
			for i := range srcs {
				p, ok := gens[i].Next()
				if !ok {
					return false
				}
				if _, err := srcs[i].Observe(p.Tick, p.Value); err != nil {
					return false
				}
				trueSum += p.Value[0]
			}
			s, err := eng.Sum(ids, 0)
			if err != nil {
				return false
			}
			if math.Abs(s.Estimate-trueSum) > s.Bound+1e-9 {
				return false
			}
			a, err := eng.Average(ids, 0)
			if err != nil {
				return false
			}
			if math.Abs(a.Estimate-trueSum/float64(nStreams)) > a.Bound+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
