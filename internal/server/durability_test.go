package server

import (
	"math"
	"reflect"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/wal"
)

// checkpointStates writes the checkpoint cut to an empty log and returns
// the stream states the file holds.
func checkpointStates(t *testing.T, s *Server) []wal.StreamState {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.WriteCheckpoint(s.Checkpoint); err != nil {
		t.Fatal(err)
	}
	var states []wal.StreamState
	if _, err := log.Restore(func(c *wal.Checkpoint) error { states = c.Streams; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	return states
}

func kalmanSpec() predictor.Spec {
	return predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
}

// resyncValue builds a wire-shaped resync payload — the observed value
// followed by a snapshot of the right length for spec — the way a
// source's reference predictor ships its full state.
func resyncValue(t *testing.T, spec predictor.Spec, value float64) []float64 {
	t.Helper()
	ref, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Correct([]float64{value}); err != nil {
		t.Fatal(err)
	}
	return append([]float64{value}, ref.AppendSnapshot(nil)...)
}

// driveWorkload runs a deterministic mixed workload (corrections, resyncs,
// heartbeats, each ingested at its own tick) against s, invoking seen for
// every applied message so tests can capture the equivalent of a WAL, and
// leaves every stream rolled through tick 59.
func driveWorkload(t *testing.T, s *Server, ids []string, spec predictor.Spec, seen func(tick int64, m *netsim.Message)) {
	t.Helper()
	if seen != nil {
		s.SetApplyHook(seen)
	}
	for tick := int64(0); tick < 60; tick++ {
		for j, id := range ids {
			var m *netsim.Message
			switch {
			case tick%7 == int64(j): // occasional resync
				m = &netsim.Message{Kind: netsim.KindResync, StreamID: id, Tick: tick,
					Value: resyncValue(t, spec, math.Sin(float64(tick)/5))}
			case tick%3 == int64(j%3): // steady corrections
				m = &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick,
					Value: []float64{math.Sin(float64(tick)/5) + 0.01*float64(j)}}
			case tick%11 == 5:
				m = &netsim.Message{Kind: netsim.KindHeartbeat, StreamID: id, Tick: tick}
			}
			if m != nil {
				if _, _, err := s.Ingest(m, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, id := range ids {
		if err := s.Roll(id, 59); err != nil {
			t.Fatal(err)
		}
	}
	s.SetApplyHook(nil)
}

// snapshotAnswers captures every observable answer surface for the
// given streams.
type answers struct {
	est    []float64
	bound  float64
	info   StreamInfo
	stddev []float64
}

func snapshotAnswers(t *testing.T, s *Server, ids []string) map[string]answers {
	t.Helper()
	out := make(map[string]answers, len(ids))
	for _, id := range ids {
		est, bound, err := s.PeekValue(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		info, err := s.Info(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		// Suppressed counts ticks rolled since this process took the stream
		// on: replay rolls them without counting, so it is no part of the
		// recovered state.
		// Nor is Bytes: it counts what this process applied or replayed, and
		// a checkpoint carries the correction count without it.
		info.Suppressed, info.Bytes = 0, 0
		_, sd, err := s.ValueDistribution(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = answers{est: est, bound: bound, info: info, stddev: sd}
	}
	return out
}

func TestApplyHookFiresForAllAppliedKinds(t *testing.T) {
	s := New()
	if err := s.Register("a", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	var got []netsim.MessageKind
	var ticks []int64
	s.SetApplyHook(func(tick int64, m *netsim.Message) {
		got = append(got, m.Kind)
		ticks = append(ticks, tick)
	})
	msgs := []*netsim.Message{
		{Kind: netsim.KindCorrection, StreamID: "a", Tick: 1, Value: []float64{4}},
		{Kind: netsim.KindHeartbeat, StreamID: "a", Tick: 2},
		{Kind: netsim.KindResync, StreamID: "a", Tick: 3, Value: resyncValue(t, staticSpec(), 7)},
	}
	if err := s.Roll("a", 3); err != nil { // they all land at tick 3
		t.Fatal(err)
	}
	for _, m := range msgs {
		if _, _, err := s.Ingest(m, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Neither a failed apply nor a dropped duplicate fires the hook.
	if _, _, err := s.Ingest(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "nope", Tick: 4}, 0); err == nil {
		t.Fatal("apply to unknown stream succeeded")
	}
	if applied, _, err := s.Ingest(msgs[0], 0); err != nil || applied {
		t.Fatalf("duplicate applied %v, err %v", applied, err)
	}
	want := []netsim.MessageKind{netsim.KindCorrection, netsim.KindHeartbeat, netsim.KindResync}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hook kinds = %v, want %v", got, want)
	}
	for i, tick := range ticks {
		if tick != 4 {
			t.Fatalf("hook tick[%d] = %d, want server tick 4", i, tick)
		}
	}
	// Replay must stay silent.
	got = nil
	if err := s.ReplayMessage(2, &netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 2, Value: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("hook fired %d times during replay", len(got))
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	ids := []string{"alpha", "beta", "gamma"}
	ctrl := New()
	for _, id := range ids {
		norm := source.NormInf
		if id == "beta" {
			norm = source.NormL2
		}
		if err := ctrl.RegisterAt(id, kalmanSpec(), 0.5, norm, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.SetDelta("gamma", 0.25); err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, ctrl, ids, kalmanSpec(), nil)

	states := checkpointStates(t, ctrl)
	if len(states) != len(ids) {
		t.Fatalf("checkpoint has %d streams, want %d", len(states), len(ids))
	}
	for i := 1; i < len(states); i++ {
		if states[i-1].ID >= states[i].ID {
			t.Fatalf("checkpoint states not sorted: %q before %q", states[i-1].ID, states[i].ID)
		}
	}

	recovered := New()
	for _, cs := range states {
		if err := recovered.RestoreStream(cs, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotAnswers(t, ctrl, ids)
	got := snapshotAnswers(t, recovered, ids)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored answers differ:\n got %+v\nwant %+v", got, want)
	}
	if norm, _ := recovered.Norm("beta"); norm != source.NormL2 {
		t.Fatalf("restored norm = %v, want L2", norm)
	}
	if d, _ := recovered.Delta("gamma"); d != 0.25 {
		t.Fatalf("restored delta = %v, want 0.25", d)
	}
}

// TestReplayReproducesControl is the in-process statement of the PR's
// core guarantee: registering the same streams and replaying the logged
// (tick, message) pairs, then rolling up to the control's clock,
// yields byte-identical answers to a server that never died.
func TestReplayReproducesControl(t *testing.T) {
	ids := []string{"alpha", "beta"}
	ctrl := New()
	for _, id := range ids {
		if err := ctrl.Register(id, kalmanSpec(), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	type rec struct {
		tick int64
		m    netsim.Message
	}
	var logged []rec
	driveWorkload(t, ctrl, ids, kalmanSpec(), func(tick int64, m *netsim.Message) {
		cp := *m
		cp.Value = append([]float64(nil), m.Value...)
		logged = append(logged, rec{tick, cp})
	})
	if len(logged) == 0 {
		t.Fatal("workload logged nothing")
	}

	recovered := New()
	for _, id := range ids {
		if err := recovered.Register(id, kalmanSpec(), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := range logged {
		if err := recovered.ReplayMessage(logged[i].tick, &logged[i].m); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		info, err := ctrl.Info(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := recovered.Roll(id, info.Tick-1); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotAnswers(t, ctrl, ids)
	got := snapshotAnswers(t, recovered, ids)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed answers differ:\n got %+v\nwant %+v", got, want)
	}
}

func TestResetDropsAllStreams(t *testing.T) {
	s := New()
	for _, id := range []string{"a", "b", "c"} {
		if err := s.Register(id, staticSpec(), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Reset()
	if n := s.Len(); n != 0 {
		t.Fatalf("Len after Reset = %d", n)
	}
	if ids := s.StreamIDs(); len(ids) != 0 {
		t.Fatalf("StreamIDs after Reset = %v", ids)
	}
	// The reset server accepts the same registrations again.
	if err := s.Register("a", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreStreamRejectsBadSnapshot(t *testing.T) {
	s := New()
	ctrl := New()
	if err := ctrl.Register("a", kalmanSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
	cs := checkpointStates(t, ctrl)[0]
	cs.Snapshot = cs.Snapshot[:1] // wrong length for the kind
	if err := s.RestoreStream(cs, 0); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Every replica snapshots, so an element without one is damaged, not
	// a fresh replica to keep.
	cs.ID, cs.Snapshot = "b", nil
	if err := s.RestoreStream(cs, 0); err == nil {
		t.Fatal("element with no snapshot accepted")
	}
	cs2 := checkpointStates(t, ctrl)[0]
	cs2.ID = ""
	if err := s.RestoreStream(cs2, 0); err == nil {
		t.Fatal("empty stream id accepted")
	}
}
