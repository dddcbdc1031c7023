package server_test

import (
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/server/servertest"
)

var static1 = predictor.Spec{Kind: predictor.KindStatic, Dim: 1}

func correction(id string, tick int64, v float64) *netsim.Message {
	return &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{v}}
}

func TestWatchdogMarksStaleAndRequestsResync(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	var reqs []*netsim.Message
	if err := s.SetWatchdog("a", 5, func(m *netsim.Message) { reqs = append(reqs, m) }); err != nil {
		t.Fatal(err)
	}
	// Traffic at tick 0 keeps lastCorr = 0; then silence.
	s.Tick()
	if err := s.Apply(correction("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Tick()
	}
	// Silence = tick-1-lastCorr = 5 = deadline: not yet stale.
	if info, _ := s.Info("a", s.At()); info.Stale {
		t.Fatal("stale at exactly the deadline")
	}
	if len(reqs) != 0 {
		t.Fatalf("resync requested before the deadline passed: %d", len(reqs))
	}
	s.Tick()
	info, err := s.Info("a", s.At())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale {
		t.Fatal("not stale one past the deadline")
	}
	if len(reqs) != 1 {
		t.Fatalf("want 1 resync request, got %d", len(reqs))
	}
	if reqs[0].Kind != netsim.KindResyncRequest || reqs[0].StreamID != "a" {
		t.Fatalf("bad request %+v", reqs[0])
	}
	if got := s.StaleCount(); got != 1 {
		t.Fatalf("StaleCount = %d, want 1", got)
	}
}

func TestWatchdogReRequestsEveryDeadline(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	var reqs int
	if err := s.SetWatchdog("a", 4, func(*netsim.Message) { reqs++ }); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if err := s.Apply(correction("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	// 20 silent ticks with deadline 4: requests at silence 5, 9, 13,
	// 17 — one initial plus one per further deadline of silence.
	for i := 0; i < 20; i++ {
		s.Tick()
	}
	if reqs != 4 {
		t.Fatalf("want 4 requests over 20 silent ticks, got %d", reqs)
	}
}

func TestWatchdogRecoversOnTraffic(t *testing.T) {
	kinds := []netsim.MessageKind{netsim.KindCorrection, netsim.KindHeartbeat}
	for _, kind := range kinds {
		s := servertest.New()
		if err := s.Register("a", static1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := s.SetWatchdog("a", 3, nil); err != nil {
			t.Fatal(err)
		}
		s.Tick()
		if err := s.Apply(correction("a", 0, 1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			s.Tick()
		}
		if info, _ := s.Info("a", s.At()); !info.Stale {
			t.Fatalf("%v: not stale after silence", kind)
		}
		m := &netsim.Message{Kind: kind, StreamID: "a", Tick: 8, Value: []float64{2}}
		if kind == netsim.KindHeartbeat {
			m.Value = nil
		}
		if err := s.Apply(m); err != nil {
			t.Fatal(err)
		}
		if info, _ := s.Info("a", s.At()); info.Stale {
			t.Fatalf("%v did not clear the stale mark", kind)
		}
		if got := s.StaleCount(); got != 0 {
			t.Fatalf("StaleCount after recovery = %d", got)
		}
	}
}

// TestStaleEpisodesCounted: every mark is one episode on the record, not
// every silent tick of it; recovery keeps the count, and Info and
// WalkCounts report the same one.
func TestStaleEpisodesCounted(t *testing.T) {
	s := servertest.New()
	for _, id := range []string{"a", "quiet"} {
		if err := s.Register(id, static1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetWatchdog("a", 3, nil); err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 3; tick++ {
		s.Tick()
		if err := s.Apply(correction("a", tick*10, 1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 9; i++ { // silent through ticks tick*10+1 … tick*10+9
			s.Tick()
		}
	}
	info, err := s.Info("a", s.At())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.StaleEpisodes != 3 {
		t.Fatalf("stale %v after %d episodes, want true after 3", info.Stale, info.StaleEpisodes)
	}
	got := map[string]int64{}
	s.WalkCounts(func(id string, _, _, episodes int64) { got[id] = episodes })
	if got["a"] != 3 || got["quiet"] != 0 {
		t.Errorf("WalkCounts episodes %v, want a=3 quiet=0", got)
	}
}

func TestWatchdogDisarmedAndUnknown(t *testing.T) {
	s := servertest.New()
	if err := s.SetWatchdog("ghost", 5, nil); err == nil {
		t.Error("armed a watchdog on an unknown stream")
	}
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	// Deadline 0 disarms: silence forever never marks stale.
	if err := s.SetWatchdog("a", 0, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Tick()
	}
	if info, _ := s.Info("a", s.At()); info.Stale || s.StaleCount() != 0 {
		t.Fatal("disarmed watchdog marked stream stale")
	}
}

func TestWatchdogOnShardedServer(t *testing.T) {
	s := &servertest.Clock{Server: server.NewSharded(8)}
	var reqs int
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := s.Register(id, static1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := s.SetWatchdog(id, 5, func(*netsim.Message) { reqs++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick()
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := s.Apply(correction(id, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.Tick()
	}
	if got := s.StaleCount(); got != 4 {
		t.Fatalf("stale streams = %d, want 4", got)
	}
	if reqs != 4 {
		t.Fatalf("requests = %d, want 4", reqs)
	}
}

// TestWatchdogSilenceCountsFromMessageTick: on the tick clock a delivery
// counts the stream as heard at its own tick + 1, not at its arrival, so a
// message held d ticks in flight leaves d ticks of silence behind it; and
// a stream armed after recovery counts its silence from its last applied
// message, not from the re-arm.
func TestWatchdogSilenceCountsFromMessageTick(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatchdog("a", 4, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Tick()
	}
	// Sent at tick 0, landing at tick 3: silence is 3 already.
	if err := s.Apply(correction("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Tick() // silence 4 = deadline
	if info, _ := s.Info("a", s.At()); info.Stale {
		t.Fatal("stale at the deadline")
	}
	s.Tick() // silence 5
	if info, _ := s.Info("a", s.At()); !info.Stale {
		t.Fatal("silence counted from the arrival, not the message's tick")
	}

	// A recovered record (heard at the recovery's now, 0 here) re-armed at
	// tick 7 is exactly as silent as its last message, at tick 2, says.
	r := servertest.New()
	if err := r.Register("b", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayMessage(3, correction("b", 2, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		r.Tick()
	}
	if err := r.SetWatchdog("b", 5, nil); err != nil {
		t.Fatal(err)
	}
	r.Tick() // tick 8: silence 8-3 = 5 = deadline
	if info, _ := r.Info("b", r.At()); info.Stale {
		t.Fatal("re-armed record counted silent since the recovery")
	}
	r.Tick() // silence 6
	if info, _ := r.Info("b", r.At()); !info.Stale {
		t.Fatal("re-armed record's silence restarted at the re-arm")
	}
}
