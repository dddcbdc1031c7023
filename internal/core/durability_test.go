package core

import "testing"

// TestRestartServerKeepsHistoryEnabled: the answer archive is volatile
// server state, like the watchdog — a restart must re-arm it from the
// handle, or every HistoryAt after the crash reports history disabled.
func TestRestartServerKeepsHistoryEnabled(t *testing.T) {
	sys, err := NewSystem(SystemConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Attach(StreamConfig{ID: "s", Predictor: StaticCache(1), Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableHistory("s", 32); err != nil {
		t.Fatal(err)
	}
	step := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := sys.Advance(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Observe([]float64{float64(i * 3)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(0, 5)
	if err := sys.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
	step(5, 10)
	if err := sys.Advance(); err != nil { // settle tick 9
		t.Fatal(err)
	}
	entry, err := sys.HistoryAt("s", 8)
	if err != nil {
		t.Fatalf("history lost across restart: %v", err)
	}
	if entry.Estimate[0] != 24 || entry.Bound != 0 {
		t.Fatalf("history at 8 = %+v", entry)
	}
	avg, err := sys.HistoryAverage("s", 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Estimate != (18+21+24+27)/4.0 {
		t.Fatalf("history avg = %+v", avg)
	}
	// The archive restarts with the server: the quiet replay stretch
	// before the crash is not in it.
	if _, err := sys.HistoryAt("s", 2); err == nil {
		t.Fatal("pre-crash tick archived by recovery replay")
	}
}

// TestRestartKeepsNorm: the node logs a registration once, through the
// server's register hook, with the gate norm in it — so a restart that
// replays the log (no checkpoint yet) rebuilds the stream on the same
// geometry the spatial queries rely on.
func TestRestartKeepsNorm(t *testing.T) {
	sys, err := NewSystem(SystemConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Attach(StreamConfig{ID: "car", Predictor: StaticCache(2), Delta: 1, DeviationNorm: NormL2}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(); err != nil {
		t.Fatal(err)
	}
	stats, err := sys.RestartServer()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsReplayed != 1 || stats.CheckpointStreams != 0 {
		t.Fatalf("recovery %+v, want the one register record replayed", stats)
	}
	if info, err := sys.Info("car"); err != nil || info.Norm != NormL2 {
		t.Fatalf("recovered norm %v (err %v), want L2", info.Norm, err)
	}
}
