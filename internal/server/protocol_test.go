package server_test

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

// runProtocol wires one source to one server over a loss-free link and
// drives it with the stream, asserting the hard precision bound on every
// suppressed tick. It returns the number of messages sent.
func runProtocol(t *testing.T, spec predictor.Spec, delta float64, norm source.Norm, st stream.Stream) int64 {
	t.Helper()
	srv := servertest.New()
	id := st.Name()
	if err := srv.Register(id, spec, delta); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(func(m *netsim.Message) {
		if err := srv.Apply(m); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}, netsim.LinkConfig{})
	src, err := source.New(source.Config{
		StreamID:      id,
		Spec:          spec,
		Delta:         delta,
		DeviationNorm: norm,
	}, link.Send)
	if err != nil {
		t.Fatal(err)
	}

	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		srv.Tick()
		sent, err := src.Observe(p.Tick, p.Value)
		if err != nil {
			t.Fatal(err)
		}
		est, bound, err := srv.Value(id)
		if err != nil {
			t.Fatal(err)
		}
		dev := norm.Deviation(p.Value, est)
		if sent {
			// A correction synchronizes both replicas on z; the
			// post-correction estimate deviation is whatever the
			// predictor leaves (0 for static; small for KF).
			continue
		}
		if dev > bound+1e-9 {
			t.Fatalf("HARD BOUND VIOLATED on %s tick %d: deviation %v > δ %v (suppressed tick)",
				id, p.Tick, dev, bound)
		}
		// Source's view of the server must match the server exactly.
		sp := src.Prediction()
		for k := range sp {
			if sp[k] != est[k] {
				t.Fatalf("replica divergence on %s tick %d: source sees %v, server has %v",
					id, p.Tick, sp, est)
			}
		}
	}
	return src.Stats().Sent
}

func specsUnderTest() map[string]predictor.Spec {
	return map[string]predictor.Spec{
		"static": {Kind: predictor.KindStatic, Dim: 1},
		"dr":     {Kind: predictor.KindDeadReckoning, Dim: 1},
		"ewma":   {Kind: predictor.KindEWMA, Dim: 1, Alpha: 0.4},
		"kf-rw":  {Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.5, R: 0.1}},
		"kf-cv":  {Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}},
		"kf-adaptive": {Kind: predictor.KindKalman, Adaptive: true, AdaptiveWindow: 32,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}},
	}
}

func TestHardBoundAllMethodsAllStreams(t *testing.T) {
	streams := func(seed int64) []stream.Stream {
		return []stream.Stream{
			stream.NewRandomWalk(seed, 0, 1, 0.1, 2000),
			stream.NewLinearDrift(seed, 0, 0.5, 0.1, 2000),
			stream.NewSine(seed, 0, 10, 150, 0, 0.2, 2000),
			stream.NewNetworkLoad(seed, 2000),
		}
	}
	for name, spec := range specsUnderTest() {
		for _, delta := range []float64{0.1, 1, 5} {
			for _, st := range streams(42) {
				t.Run(name+"/"+st.Name(), func(t *testing.T) {
					runProtocol(t, spec, delta, source.NormInf, st)
				})
			}
		}
	}
}

func TestHardBound2DL2(t *testing.T) {
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity2D, Q: 0.1, R: 0.25}}
	st := stream.NewWaypoint2D(7, 1000, 1, 5, 0.5, 20, 3000)
	runProtocol(t, spec, 10, source.NormL2, st)
}

func TestMessageCountMonotoneInDelta(t *testing.T) {
	// Widening δ can only reduce (or keep) the number of messages for the
	// static-cache predictor, whose trajectory is δ-independent between
	// corrections... in fact for ANY predictor the first δ where a
	// deviation exceeds the bound triggers a send, so we verify the
	// monotone trend statistically for all predictors over the same
	// stream realization.
	for name, spec := range specsUnderTest() {
		deltas := []float64{0.25, 0.5, 1, 2, 4, 8}
		var counts []int64
		for _, d := range deltas {
			st := stream.NewRandomWalk(99, 0, 1, 0.1, 4000) // same seed each δ
			counts = append(counts, runProtocol(t, spec, d, source.NormInf, st))
		}
		for i := 1; i < len(counts); i++ {
			// Exact monotonicity is not guaranteed for stateful
			// predictors (different correction history changes future
			// predictions), but a larger δ should never *increase*
			// traffic materially. Allow 10% slack.
			if float64(counts[i]) > float64(counts[i-1])*1.10+1 {
				t.Errorf("%s: messages rose from %d (δ=%v) to %d (δ=%v)",
					name, counts[i-1], deltas[i-1], counts[i], deltas[i])
			}
		}
		// And the loosest bound must be dramatically cheaper than the
		// tightest.
		if counts[len(counts)-1] >= counts[0] {
			t.Errorf("%s: no savings from δ=%v (%d msgs) to δ=%v (%d msgs)",
				name, deltas[0], counts[0], deltas[len(deltas)-1], counts[len(counts)-1])
		}
	}
}

func TestKalmanBeatsStaticOnDriftingStream(t *testing.T) {
	// The headline result: on a stream with exploitable dynamics (drift),
	// the KF predictor ships far fewer messages than the static cache at
	// equal δ.
	delta := 1.0
	kfSpec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.01, R: 0.04}}
	stSpec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}

	kfMsgs := runProtocol(t, kfSpec, delta, source.NormInf, stream.NewLinearDrift(5, 0, 0.4, 0.1, 5000))
	stMsgs := runProtocol(t, stSpec, delta, source.NormInf, stream.NewLinearDrift(5, 0, 0.4, 0.1, 5000))
	if kfMsgs*3 > stMsgs {
		t.Fatalf("kalman sent %d msgs, static %d — expected ≥3× reduction on drift", kfMsgs, stMsgs)
	}
}

func TestPropHardBoundRandomConfigs(t *testing.T) {
	// Random (method, stream, δ) triples never violate the bound — this
	// is invariant 2 from DESIGN.md.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := specsUnderTest()
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		// Map iteration order is random; sort for reproducibility of the
		// pick below.
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && names[j] < names[j-1]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
		spec := specs[names[rng.Intn(len(names))]]
		delta := math.Exp(rng.Float64()*4 - 2) // δ ∈ [e⁻², e²]
		var st stream.Stream
		switch rng.Intn(3) {
		case 0:
			st = stream.NewRandomWalk(seed, 0, 0.5+rng.Float64()*2, 0.1, 800)
		case 1:
			st = stream.NewSine(seed, 0, 5+rng.Float64()*10, 50+rng.Float64()*200, 0, 0.3, 800)
		default:
			st = stream.NewRegimeSwitching(seed, 100, 0.2, 800)
		}

		srv := servertest.New()
		if err := srv.Register("s", spec, delta); err != nil {
			return false
		}
		link := netsim.NewLink(func(m *netsim.Message) { _ = srv.Apply(m) }, netsim.LinkConfig{})
		src, err := source.New(source.Config{StreamID: "s", Spec: spec, Delta: delta}, link.Send)
		if err != nil {
			return false
		}
		for {
			p, ok := st.Next()
			if !ok {
				return true
			}
			srv.Tick()
			sent, err := src.Observe(p.Tick, p.Value)
			if err != nil {
				return false
			}
			if sent {
				continue
			}
			est, bound, err := srv.Value("s")
			if err != nil {
				return false
			}
			if source.NormInf.Deviation(p.Value, est) > bound+1e-9 {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
