package server_test

import (
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server/servertest"
)

// historyFixture registers a static stream with history and feeds ticks
// 0..n-1 with value = tick (each tick corrected), then settles the last.
func historyFixture(t *testing.T, capacity, n int) *servertest.Clock {
	t.Helper()
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", capacity); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Tick()
		err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a",
			Tick: int64(i), Value: []float64{float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Tick()
	if err := s.Roll("a", s.At()); err != nil { // settle the final tick into history
		t.Fatal(err)
	}
	return s
}

func TestEnableHistoryValidation(t *testing.T) {
	s := servertest.New()
	if err := s.EnableHistory("nope", 4); err == nil {
		t.Error("unknown stream accepted")
	}
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := s.EnableHistory("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 4); err == nil {
		t.Error("double enable accepted")
	}
}

func TestHistoryRecordsSettledAnswers(t *testing.T) {
	s := historyFixture(t, 100, 10)
	for tick := int64(0); tick < 10; tick++ {
		e, err := s.HistoryAt("a", tick)
		if err != nil {
			t.Fatal(err)
		}
		if e.Tick != tick {
			t.Fatalf("entry tick %d, want %d", e.Tick, tick)
		}
		// Every tick received a correction, so history holds the exact
		// measurement with bound 0.
		if e.Estimate[0] != float64(tick) || e.Bound != 0 {
			t.Fatalf("tick %d: %v ± %v, want %v ± 0", tick, e.Estimate[0], e.Bound, float64(tick))
		}
	}
}

func TestHistorySuppressedTicksCarryDelta(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 16); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 0, Value: []float64{7}})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick() // tick 1: suppressed
	s.Tick()
	if err := s.Roll("a", s.At()); err != nil { // settle tick 1
		t.Fatal(err)
	}
	e0, err := s.HistoryAt("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e0.Bound != 0 || e0.Estimate[0] != 7 {
		t.Fatalf("corrected tick archived as %v ± %v", e0.Estimate[0], e0.Bound)
	}
	e1, err := s.HistoryAt("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Bound != 0.5 || e1.Estimate[0] != 7 {
		t.Fatalf("suppressed tick archived as %v ± %v, want 7 ± 0.5", e1.Estimate[0], e1.Bound)
	}
}

func TestHistoryEviction(t *testing.T) {
	s := historyFixture(t, 4, 10) // ticks 0..9, only 6..9 retained
	if n, err := s.HistoryLen("a"); err != nil || n != 4 {
		t.Fatalf("len = %d, %v", n, err)
	}
	if _, err := s.HistoryAt("a", 5); err == nil {
		t.Fatal("evicted tick answered")
	}
	e, err := s.HistoryAt("a", 6)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimate[0] != 6 {
		t.Fatalf("tick 6 = %v", e.Estimate[0])
	}
	if _, err := s.HistoryAt("a", 10); err == nil {
		t.Fatal("unsettled tick answered")
	}
}

func TestHistoryRange(t *testing.T) {
	s := historyFixture(t, 100, 10)
	entries, err := s.HistoryRange("a", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || entries[0].Tick != 3 || entries[3].Tick != 6 {
		t.Fatalf("range = %+v", entries)
	}
	if _, err := s.HistoryRange("a", 6, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := s.HistoryRange("a", -5, 2); err == nil {
		t.Error("range with evicted/never ticks accepted")
	}
}

func TestHistoryErrorsWithoutEnable(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HistoryAt("a", 0); err == nil {
		t.Error("history answered without enable")
	}
	if _, err := s.HistoryLen("a"); err == nil {
		t.Error("history len without enable")
	}
	if _, err := s.HistoryAt("zz", 0); err == nil {
		t.Error("unknown stream answered")
	}
	if _, err := s.HistoryLen("zz"); err == nil {
		t.Error("unknown stream len answered")
	}
}

func TestHistoryBeforeAnyTick(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 4); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.HistoryLen("a"); n != 0 {
		t.Fatalf("len before ticks = %d", n)
	}
	s.Tick()
	if _, _, err := s.Value("a"); err != nil { // rolling from tick 0 archives nothing (no tick settled)
		t.Fatal(err)
	}
	if n, _ := s.HistoryLen("a"); n != 0 {
		t.Fatalf("len after first tick = %d", n)
	}
}
