package server_test

import (
	"math"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server/servertest"
)

// The record's apply and answer surfaces on the tick clock: every message
// is delivered at the clock's tick and every read answers there.

func TestRegisterAndValue(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	est, bound, err := s.Value("a")
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 0 || bound != 0.5 {
		t.Fatalf("initial value = %v ± %v", est, bound)
	}
}

func TestUnregister(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("a"); err == nil {
		t.Error("double unregister accepted")
	}
	if _, _, err := s.Value("a"); err == nil {
		t.Error("value for removed stream answered")
	}
}

func TestApplyCorrection(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 0, Value: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	est, _, err := s.Value("a")
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 9 {
		t.Fatalf("value after correction = %v, want 9", est[0])
	}
	info, err := s.Info("a", s.At())
	if err != nil {
		t.Fatal(err)
	}
	if info.Corrections != 1 || info.LastCorrectionTick != 0 || info.Staleness != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestApplyErrors(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "nope", Value: []float64{1}}); err == nil {
		t.Error("unknown stream accepted")
	}
	if err := s.Apply(&netsim.Message{Kind: netsim.KindDeltaUpdate, StreamID: "a", Value: []float64{1}}); err == nil {
		t.Error("delta-update via Apply accepted")
	}
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Value: []float64{1, 2}}); err == nil {
		t.Error("wrong-dim correction accepted")
	}
}

func TestHeartbeatRefreshesStalenessOnly(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 0, Value: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	s.Tick()
	if err := s.Apply(&netsim.Message{Kind: netsim.KindHeartbeat, StreamID: "a", Tick: 2}); err != nil {
		t.Fatal(err)
	}
	info, _ := s.Info("a", s.At())
	if info.Staleness != 0 {
		t.Fatalf("staleness after heartbeat = %d", info.Staleness)
	}
	if info.Corrections != 1 {
		t.Fatalf("heartbeat counted as correction: %+v", info)
	}
	est, _, _ := s.Value("a")
	if est[0] != 5 {
		t.Fatalf("heartbeat changed the estimate to %v", est[0])
	}
}

func TestStalenessGrows(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 0, Value: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Tick()
	}
	info, _ := s.Info("a", s.At())
	if info.Staleness != 4 {
		t.Fatalf("staleness = %d, want 4", info.Staleness)
	}
}

func TestApplyResyncPaths(t *testing.T) {
	s := servertest.New()
	kfSpec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.25}}
	if err := s.Register("k", kfSpec, 1); err != nil {
		t.Fatal(err)
	}
	// Build a valid resync payload from an identically-specced replica.
	twin, err := kfSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	twin.Step()
	if err := twin.Correct([]float64{7}); err != nil {
		t.Fatal(err)
	}
	snap := twin.AppendSnapshot(nil)
	s.Tick()
	msg := &netsim.Message{Kind: netsim.KindResync, StreamID: "k", Tick: 0,
		Value: append([]float64{7}, snap...)}
	if err := s.Apply(msg); err != nil {
		t.Fatal(err)
	}
	est, bound, err := s.Value("k")
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 7 || bound != 0 {
		t.Fatalf("post-resync answer %v ± %v, want exactly 7", est[0], bound)
	}
	info, _ := s.Info("k", s.At())
	if info.Corrections != 1 {
		t.Fatalf("resync not counted as correction: %+v", info)
	}
	// Truncated resync (shorter than the measurement) rejected.
	if err := s.Apply(&netsim.Message{Kind: netsim.KindResync, StreamID: "k", Tick: 1}); err == nil {
		t.Error("empty resync accepted")
	}
	// Wrong-length snapshot rejected.
	bad := &netsim.Message{Kind: netsim.KindResync, StreamID: "k", Tick: 1,
		Value: []float64{7, 1, 2, 3}}
	if err := s.Apply(bad); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// TestCraftedAdaptiveResyncRefused: an adaptive replica's resync whose
// window metadata no replica produces — the ring index at the window's
// end, or a filled ring with no entries — is refused before anything
// moves, so the stream answers as it did and its next correction applies
// (either shape used to be accepted and then crash that correction).
func TestCraftedAdaptiveResyncRefused(t *testing.T) {
	spec := predictor.Spec{Kind: predictor.KindKalman, Adaptive: true, AdaptiveWindow: 4,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.1, R: 0.5}}
	// A 1-state adaptive snapshot: x, P, Q, R, qScale, nisSum, nisCount,
	// steps, next, filled, count, then count × (innovation, H·P·Hᵀ).
	const next, filled, count = 8, 9, 10
	twin, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // fills the ring: next 0, filled, count 4
		twin.Step()
		if err := twin.Correct([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	full := twin.AppendSnapshot(nil)
	if len(full) != 19 || full[next] != 0 || full[filled] != 1 || full[count] != 4 {
		t.Fatalf("twin snapshot layout changed: %v", full)
	}
	endOfRing := append([]float64(nil), full...)
	endOfRing[next], endOfRing[filled] = 4, 0
	emptyFilled := append([]float64(nil), full[:11]...)
	emptyFilled[count] = 0

	for _, tc := range []struct {
		name string
		snap []float64
	}{{"next at window", endOfRing}, {"filled with count 0", emptyFilled}} {
		t.Run(tc.name, func(t *testing.T) {
			s := servertest.New()
			if err := s.Register("a", spec, 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				s.Tick()
				if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a",
					Tick: s.At(), Value: []float64{float64(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			s.Tick()
			before, _, err := s.Value("a")
			if err != nil {
				t.Fatal(err)
			}
			crafted := &netsim.Message{Kind: netsim.KindResync, StreamID: "a", Tick: s.At(),
				Value: append([]float64{9}, tc.snap...)}
			if err := s.Apply(crafted); err == nil {
				t.Fatal("crafted resync accepted")
			}
			after, bound, err := s.Value("a")
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(after[0]) != math.Float64bits(before[0]) || bound != 1 {
				t.Fatalf("answer moved: %v ± %v, was %v ± 1", after, bound, before)
			}
			for i := 0; i < 8; i++ { // crosses several re-estimations
				s.Tick()
				if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a",
					Tick: s.At(), Value: []float64{5}}); err != nil {
					t.Fatal(err)
				}
			}
			if info, _ := s.Info("a", s.At()); info.Corrections != 11 {
				t.Fatalf("corrections %d after the refused resync, want 11", info.Corrections)
			}
		})
	}
}
