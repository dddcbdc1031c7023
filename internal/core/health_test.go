package core

import (
	"log/slog"
	"testing"

	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/telemetry"
)

// TestAdvanceTicksHealthMonitor checks the clock wiring: a monitor and
// store handed to SystemConfig advance together, one store tick per
// Advance, and the monitor's windows are the store's 5-tick buckets. A
// monitor with no store to read is a construction error.
func TestAdvanceTicksHealthMonitor(t *testing.T) {
	reg := telemetry.New()
	mon := health.NewMonitor(health.Config{
		WindowTicks: 5, Windows: 8, Registry: reg,
		Logger: slog.New(slog.DiscardHandler),
	})
	if _, err := NewSystem(SystemConfig{Health: mon, Telemetry: reg}); err == nil {
		t.Fatal("NewSystem accepted a monitor without a telemetry history")
	}
	st, err := history.NewStore(history.Config{Registry: reg,
		Tiers: []history.Tier{{Every: 1, Len: 8}, {Every: 5, Len: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{Health: mon, TelemetryHistory: st, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Attach(StreamConfig{ID: "a", Predictor: StaticCache(1), Delta: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	snap := mon.Snapshot()
	if snap.Tick != 25 {
		t.Errorf("monitor tick = %d after 25 Advances, want 25", snap.Tick)
	}
	if snap.WindowsClosed != 5 {
		t.Errorf("monitor closed %d windows, want 5", snap.WindowsClosed)
	}
}

// TestAdvancePublishesStreamsStale: with a store attached, each Advance
// sets streams_stale from the watchdog's verdicts before the store
// records it, so the bucket of the tick a stream goes stale — not the
// next one — shows it.
func TestAdvancePublishesStreamsStale(t *testing.T) {
	reg := telemetry.New()
	st, err := history.NewStore(history.Config{Registry: reg, Tiers: []history.Tier{{Every: 1, Len: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{TelemetryHistory: st, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Attach(StreamConfig{ID: "a", Predictor: StaticCache(1), Delta: 1, WatchdogDeadline: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Observe([]float64{0}); err != nil { // the first value always ships
		t.Fatal(err)
	}
	markedAt := int64(-1)
	for sys.Tick() < 10 { // no more Observes: the stream falls silent
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		if h.Stale() && markedAt < 0 {
			markedAt = sys.Tick()
		}
	}
	if markedAt < 0 {
		t.Fatal("watchdog never marked the silent stream")
	}
	pts := st.Query(history.Q{Name: "streams_stale"})[0].Points
	for _, p := range pts {
		want := 0.0
		if p.EndTick >= markedAt {
			want = 1
		}
		if p.Max != want {
			t.Errorf("streams_stale bucket ending at tick %d = %v, want %v (marked at %d)", p.EndTick, p.Max, want, markedAt)
		}
	}
}
