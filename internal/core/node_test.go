package core

import (
	"fmt"
	"log/slog"
	"testing"

	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/telemetry"
)

// TestNodeTickCadences drives a wall-clock node with every duty armed on
// a fake clock, ticked every Period (the fastest duty's cadence) with a
// late call now and then: each duty runs at its own cadence, a late call
// costs one run and no burst, and a second node with nothing armed has no
// period at all.
func TestNodeTickCadences(t *testing.T) {
	reg := telemetry.New()
	st, err := history.NewStore(history.Config{Registry: reg, Tiers: []history.Tier{{Every: 1, Len: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	mon := health.NewMonitor(health.Config{WindowTicks: 1, Windows: 8, Registry: reg,
		Logger: slog.New(slog.DiscardHandler)})
	var now int64 = 1000
	n, err := NewNode(NodeConfig{Telemetry: reg, Clock: func() int64 { return now },
		History: st, HistoryEvery: 25, Health: mon,
		WALDir: t.TempDir(), FlushEvery: 10, CheckpointEvery: 35, StaleAfter: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if p := n.Period(); p != 10 {
		t.Fatalf("Period = %d, want the flush cadence 10", p)
	}
	if _, err := n.Server().Adopt("s", StaticCache(1), 1, nil, now); err != nil {
		t.Fatal(err)
	}
	scans := 0
	for step := 1; step <= 100; step++ {
		now = 1000 + int64(step)*10
		if step%20 == 0 {
			now += 7 // a late tick
		}
		silent, err := n.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		scans += len(silent)
	}
	if got := reg.Counter("wal_checkpoints_total").Value(); got < 1000/35-1 || got > 1000/35 {
		t.Errorf("%d checkpoints in 1000 units at every 35, want %d (or one fewer)", got, 1000/35)
	}
	if got := mon.Snapshot().Tick; got < 1000/25-1 || got > 1000/25 {
		t.Errorf("%d store ticks in 1000 units at every 25, want %d (or one fewer)", got, 1000/25)
	}
	// The stream fell silent at 1000; the scan marks it once it is past 40.
	if scans != 1 || reg.Gauge("streams_stale").Value() != 1 {
		t.Errorf("scan findings %d, streams_stale %v; want one mark and 1", scans, reg.Gauge("streams_stale").Value())
	}
	bare, err := NewNode(NodeConfig{Telemetry: telemetry.New(), Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if p := bare.Period(); p != 0 {
		t.Errorf("bare node Period = %d, want 0: nothing to run", p)
	}
}

// checkpointAllocs builds a durable node holding streams streams — a mix
// of predictor kinds, each with a correction applied — and returns the
// allocations of one steady-state Checkpoint.
func checkpointAllocs(t *testing.T, streams int) float64 {
	t.Helper()
	n, err := NewNode(NodeConfig{Telemetry: telemetry.New(), Logger: slog.New(slog.DiscardHandler),
		Clock: func() int64 { return 0 }, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	specs := []PredictorSpec{KalmanConstantVelocity(0.05, 0.1), StaticCache(1),
		Adaptive(KalmanRandomWalk(0.05, 0.1)), KalmanBank(KalmanRandomWalk(0.05, 0.1), KalmanConstantVelocity(0.05, 0.1))}
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%05d", i)
		if _, err := n.Server().Adopt(id, specs[i%len(specs)], 0.5, nil, 0); err != nil {
			t.Fatal(err)
		}
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: 3, Value: []float64{float64(i)}}
		if _, _, err := n.Server().Ingest(m, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, func() {
		if err := n.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointAllocsIndependentOfPopulation: a checkpoint copies the
// streams into buffers the log reuses and streams the file from them, so
// a steady-state one allocates the same few objects at any population.
func TestCheckpointAllocsIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled paths allocate by design")
	}
	small, large := checkpointAllocs(t, 100), checkpointAllocs(t, 1000)
	if large > small+16 {
		t.Fatalf("Checkpoint allocates %.0f times at 1,000 streams, %.0f at 100: want at most 16 more", large, small)
	}
}
