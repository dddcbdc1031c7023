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

// spatialFixture registers 2-D static streams under the L2 norm at the
// given positions with δ=1 and settles them.
func spatialFixture(t *testing.T, positions map[string][2]float64) *Engine {
	t.Helper()
	srv := servertest.New()
	for id, pos := range positions {
		if err := srv.RegisterAt(id, predictor.Spec{Kind: predictor.KindStatic, Dim: 2}, 1, source.NormL2, 0); err != nil {
			t.Fatal(err)
		}
		srv.Tick()
		err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: id,
			Tick: 0, Value: []float64{pos[0], pos[1]}})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Tick()
	return New(srv.Server, srv.At)
}

func TestDistance(t *testing.T) {
	e := spatialFixture(t, map[string][2]float64{"car": {3, 4}})
	d, err := e.Distance("car", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Estimate != 5 || d.Bound != 1 {
		t.Fatalf("distance = %+v", d)
	}
}

func TestWithinRadius(t *testing.T) {
	e := spatialFixture(t, map[string][2]float64{"car": {3, 4}})
	cases := []struct {
		radius float64
		want   Tristate
	}{
		{7, True},      // 5 + 1 ≤ 7
		{6, True},      // 5 + 1 ≤ 6
		{5.5, Unknown}, // straddles
		{3.9, False},   // 5 − 1 > 3.9
	}
	for _, c := range cases {
		got, err := e.WithinRadius("car", 0, 0, c.radius)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("radius %v: %v, want %v", c.radius, got, c.want)
		}
	}
	if _, err := e.WithinRadius("car", 0, 0, -1); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestSeparationAndCloserThan(t *testing.T) {
	e := spatialFixture(t, map[string][2]float64{"a": {0, 0}, "b": {6, 8}})
	sep, err := e.Separation("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if sep.Estimate != 10 || sep.Bound != 2 {
		t.Fatalf("separation = %+v", sep)
	}
	if got, _ := e.CloserThan("a", "b", 13); got != True {
		t.Fatalf("CloserThan(13) = %v", got)
	}
	if got, _ := e.CloserThan("a", "b", 7); got != False {
		t.Fatalf("CloserThan(7) = %v", got)
	}
	if got, _ := e.CloserThan("a", "b", 10.5); got != Unknown {
		t.Fatalf("CloserThan(10.5) = %v", got)
	}
	if _, err := e.CloserThan("a", "b", -1); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := e.Separation("a", "ghost"); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestSpatialRejectsWrongNormOrDim(t *testing.T) {
	srv := servertest.New()
	// 2-D but Linf gate.
	if err := srv.Register("box", predictor.Spec{Kind: predictor.KindStatic, Dim: 2}, 1); err != nil {
		t.Fatal(err)
	}
	// 1-D with L2 gate.
	if err := srv.RegisterAt("scalar", predictor.Spec{Kind: predictor.KindStatic, Dim: 1}, 1, source.NormL2, 0); err != nil {
		t.Fatal(err)
	}
	e := New(srv.Server, srv.At)
	if _, err := e.Distance("box", 0, 0); err == nil {
		t.Error("Linf-gated stream accepted for spatial query")
	}
	if _, err := e.Distance("scalar", 0, 0); err == nil {
		t.Error("1-D stream accepted for spatial query")
	}
	if _, err := e.Distance("ghost", 0, 0); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestWeightedSum(t *testing.T) {
	_, e := fixture(t,
		map[string]float64{"a": 10, "b": 20},
		map[string]float64{"a": 1, "b": 2})
	ans, err := e.WeightedSum([]string{"a", "b"}, []float64{3, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate != 10 { // 30 − 20
		t.Fatalf("weighted sum = %+v", ans)
	}
	if ans.Bound != 5 { // 3·1 + |−1|·2
		t.Fatalf("weighted bound = %+v", ans)
	}
	if _, err := e.WeightedSum(nil, nil, 0); err == nil {
		t.Error("empty weighted sum accepted")
	}
	if _, err := e.WeightedSum([]string{"a"}, []float64{1, 2}, 0); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := e.WeightedSum([]string{"ghost"}, []float64{1}, 0); err == nil {
		t.Error("unknown stream accepted")
	}
}

// TestGeofenceBoundsHoldThroughProtocol drives a moving object through
// the full protocol and verifies that every *certain* geofence verdict is
// actually correct against the true position.
func TestGeofenceBoundsHoldThroughProtocol(t *testing.T) {
	srv := servertest.New()
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity2D, Q: 0.5, R: 1}}
	delta := 8.0
	if err := srv.RegisterAt("car", spec, delta, source.NormL2, 0); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(func(m *netsim.Message) { _ = srv.Apply(m) }, netsim.LinkConfig{})
	src, err := source.New(source.Config{StreamID: "car", Spec: spec, Delta: delta,
		DeviationNorm: source.NormL2}, link.Send)
	if err != nil {
		t.Fatal(err)
	}
	e := New(srv.Server, srv.At)
	gen := stream.NewWaypoint2D(5, 1000, 3, 10, 1, 10, 5000)
	cx, cy, radius := 500.0, 500.0, 300.0
	var certain, unknown int64
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		srv.Tick()
		if _, err := src.Observe(p.Tick, p.Value); err != nil {
			t.Fatal(err)
		}
		verdict, err := e.WithinRadius("car", cx, cy, radius)
		if err != nil {
			t.Fatal(err)
		}
		// Certainty is stated wrt the reported fix (p.Value).
		trueDist := math.Hypot(p.Value[0]-cx, p.Value[1]-cy)
		switch verdict {
		case True:
			certain++
			if trueDist > radius {
				t.Fatalf("tick %d: certain True but measured distance %v > %v", p.Tick, trueDist, radius)
			}
		case False:
			certain++
			if trueDist <= radius {
				t.Fatalf("tick %d: certain False but measured distance %v ≤ %v", p.Tick, trueDist, radius)
			}
		default:
			unknown++
		}
	}
	if certain == 0 {
		t.Fatal("no certain verdicts at all")
	}
	if unknown == 0 {
		t.Fatal("no unknown verdicts — δ never straddled the fence?")
	}
}
