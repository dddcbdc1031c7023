package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"kalmanstream/internal/wal"
)

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

// recordStates is the server's checkpoint cut as a restart reads it:
// every record's tick, counts, δ and replica snapshot.
func recordStates(t *testing.T, sys *System) []wal.State {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(log.WriteCheckpoint(sys.node.srv.Checkpoint), log.Close()); err != nil {
		t.Fatal(err)
	}
	if log, err = wal.Open(wal.Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var states []wal.State
	if _, err := log.Restore(func(typ wal.RecordType, tick int64, payload []byte) error {
		if typ != wal.RecState {
			return nil
		}
		var st wal.State
		err := wal.DecodeState(tick, payload, &st)
		states = append(states, st)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return states
}

// TestTickClockReadsMoveNoRecord: on core.System the answer archive (an
// enable, point reads, the engine's aggregates over it), a δ change and
// an Advance whose budget reallocation moves δ take the system tick and
// write no record — only the sources' messages do: every record's
// checkpoint state is what it was, δ aside, while the archive answers
// exactly what a client asking on each tick was told. The run ends silent,
// so every one of them reads ahead of the record.
func TestTickClockReadsMoveNoRecord(t *testing.T) {
	const n = 40
	sys, err := NewSystem(SystemConfig{BudgetPerTick: 0.01, Allocator: "uniform", AllocPeriod: n})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*StreamHandle
	for _, id := range []string{"s", "u"} {
		h, err := sys.Attach(StreamConfig{ID: id, Predictor: KalmanRandomWalk(0.05, 0.1), Delta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := sys.EnableHistory("s", n); err != nil {
		t.Fatal(err)
	}
	var told [][]float64
	var bounds []float64
	for tick := int64(0); tick < n; tick++ {
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		v := 3 * math.Sin(float64(min(tick, n-10))/3) // the last ten ticks hold still
		for _, h := range handles {
			if _, err := h.Observe([]float64{v}); err != nil {
				t.Fatal(err)
			}
		}
		est, bound, err := sys.Vector("s")
		if err != nil {
			t.Fatal(err)
		}
		told, bounds = append(told, est), append(bounds, bound)
	}
	for _, id := range []string{"s", "u"} {
		if info, err := sys.node.srv.Info(id, -1); err != nil || info.Tick >= n {
			t.Fatalf("%s stands at tick %d (err %v): the run must end silent", id, info.Tick-1, err)
		}
	}
	bitEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}

	before := recordStates(t, sys)
	if err := sys.EnableHistory("u", 8); err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < n-1; tick++ {
		e, err := sys.HistoryAt("s", tick)
		if err != nil || !bitEqual(e.Estimate, told[tick]) || e.Bound != bounds[tick] {
			t.Fatalf("tick %d: archived %+v (err %v), told %v ± %v", tick, e, err, told[tick], bounds[tick])
		}
	}
	if _, err := sys.HistoryAverage("s", 0, n-2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.HistoryExtremes("s", 0, n-2); err != nil {
		t.Fatal(err)
	}
	if err := handles[0].SetDelta(0.75); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(); err != nil { // the coordinator's first reallocation
		t.Fatal(err)
	}
	if d, err := sys.node.srv.Delta("u"); err != nil || sys.AllocRounds() != 1 || d == 0.5 {
		t.Fatalf("reallocation rounds %d, δ of u %v (err %v): want one round that moved it", sys.AllocRounds(), d, err)
	}

	after := recordStates(t, sys)
	for i := range before {
		before[i].Delta = after[i].Delta // a δ change writes δ alone
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("tick-clock reads moved a record:\n got %+v\nwant %+v", after, before)
	}
}
