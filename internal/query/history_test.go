package query

import (
	"math"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server/servertest"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
)

// historyEngine builds a server with history and feeds a corrected ramp.
func historyEngine(t *testing.T) (*servertest.Clock, *Engine) {
	t.Helper()
	srv := servertest.New()
	if err := srv.Register("h", predictor.Spec{Kind: predictor.KindStatic, Dim: 1}, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableHistory("h", 64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		srv.Tick()
		err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "h",
			Tick: int64(i), Value: []float64{float64(i * 2)}}) // 0, 2, 4, ..., 18
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Tick()
	return srv, New(srv.Server, srv.At)
}

func TestHistoryAverage(t *testing.T) {
	_, e := historyEngine(t)
	// Ticks 2..5 have values 4, 6, 8, 10 → mean 7; every tick was
	// corrected, so all bounds are 0.
	ans, err := e.HistoryAverage("h", 0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 7 || ans.Bound != 0 {
		t.Fatalf("history avg = %+v", ans)
	}
	if _, err := e.HistoryAverage("h", 0, 5, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := e.HistoryAverage("h", 3, 2, 5); err == nil {
		t.Fatal("bad component accepted")
	}
	if _, err := e.HistoryAverage("zz", 0, 2, 5); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestHistoryExtremes(t *testing.T) {
	_, e := historyEngine(t)
	minIv, maxIv, err := e.HistoryExtremes("h", 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Values 2..8, all exact.
	if minIv.Lo != 2 || minIv.Hi != 2 {
		t.Fatalf("min enclosure = %+v", minIv)
	}
	if maxIv.Lo != 8 || maxIv.Hi != 8 {
		t.Fatalf("max enclosure = %+v", maxIv)
	}
	if _, _, err := e.HistoryExtremes("h", 5, 1, 4); err == nil {
		t.Fatal("bad component accepted")
	}
}

// TestHistoryBoundsHoldThroughProtocol drives a full suppression run with
// history enabled and then verifies every archived answer against the
// recorded true measurements — the historical analogue of the live hard
// bound.
func TestHistoryBoundsHoldThroughProtocol(t *testing.T) {
	const n = 2000
	srv := servertest.New()
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	delta := 1.0
	if err := srv.Register("s", spec, delta); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableHistory("s", n+1); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(func(m *netsim.Message) { _ = srv.Apply(m) }, netsim.LinkConfig{})
	src, err := source.New(source.Config{StreamID: "s", Spec: spec, Delta: delta}, link.Send)
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewSine(3, 0, 10, 300, 0, 0.2, n)
	measurements := make([]float64, 0, n)
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		srv.Tick()
		if _, err := src.Observe(p.Tick, p.Value); err != nil {
			t.Fatal(err)
		}
		measurements = append(measurements, p.Value[0])
	}
	srv.Tick() // settles the final tick

	e := New(srv.Server, srv.At)
	for tick := int64(0); tick < n; tick++ {
		entry, err := srv.HistoryAt("s", tick)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(entry.Estimate[0]-measurements[tick]) > entry.Bound+1e-9 {
			t.Fatalf("tick %d: archived %v ± %v vs true %v",
				tick, entry.Estimate[0], entry.Bound, measurements[tick])
		}
	}
	// A windowed historical average composed from those entries must
	// enclose the true windowed average.
	from, to := int64(500), int64(699)
	ans, err := e.HistoryAverage("s", 0, from, to)
	if err != nil {
		t.Fatal(err)
	}
	var trueSum float64
	for tick := from; tick <= to; tick++ {
		trueSum += measurements[tick]
	}
	trueMean := trueSum / float64(to-from+1)
	if math.Abs(ans.Estimate-trueMean) > ans.Bound+1e-9 {
		t.Fatalf("history avg %v ± %v vs true %v", ans.Estimate, ans.Bound, trueMean)
	}
}
