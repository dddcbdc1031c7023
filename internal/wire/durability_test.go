package wire

import (
	"encoding/json"
	"log/slog"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
)

func durSpec() predictor.Spec {
	return predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
}

// newDurable builds a durable server over dir with a private registry
// and manual flushing (FlushEvery far in the future so tests control
// exactly what is durable).
func newDurable(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := NewDurableServer(Options{Metrics: telemetry.New()},
		Durability{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sendWindow applies ticks [from, to) of the deterministic workload to
// every server in ss — the same registrations and corrections land on
// each, so their answers must agree.
func sendWindow(t *testing.T, ids []string, from, to int64, ss ...*Server) {
	t.Helper()
	for tick := from; tick < to; tick++ {
		for j, id := range ids {
			if tick%3 != int64(j%3) {
				continue
			}
			m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick,
				Value: []float64{math.Sin(float64(tick)/4) + float64(j)}}
			for _, s := range ss {
				if err := s.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func registerAll(t *testing.T, ids []string, ss ...*Server) {
	t.Helper()
	for _, id := range ids {
		p := RegisterPayload{ID: id, Spec: durSpec(), Delta: 0.5}
		for _, s := range ss {
			if err := s.Register(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// answersAt queries every stream at tick on every server and asserts
// they all return byte-identical payloads.
func answersAt(t *testing.T, ids []string, tick int64, want, got *Server) {
	t.Helper()
	for _, id := range ids {
		w, err := want.Query(QueryPayload{ID: id, Tick: tick})
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Query(QueryPayload{ID: id, Tick: tick})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("stream %s tick %d: recovered answer %+v, control %+v", id, tick, g, w)
		}
	}
}

// TestRecoveryByteIdenticalToControl is the tentpole guarantee at the
// wire layer: a server that crashes after a sync and recovers from its
// log serves byte-identical answers to one that never died.
func TestRecoveryByteIdenticalToControl(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ids := []string{"alpha", "beta", "gamma"}

	crashed := newDurable(t, dir)
	control := NewServerWith(Options{Metrics: telemetry.New()})
	registerAll(t, ids, crashed, control)
	sendWindow(t, ids, 0, 40, crashed, control)
	if err := crashed.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the server without Close — nothing past the last
	// Sync may be assumed durable, and nothing before it may be lost.

	recovered := newDurable(t, dir)
	defer recovered.Close()
	stats := recovered.RecoveryStats()
	if stats.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed nothing: %+v", stats)
	}
	for _, tick := range []int64{39, 40, 45} {
		answersAt(t, ids, tick, control, recovered)
	}
	// The recovered server keeps serving: new traffic lands on both and
	// they stay in lockstep.
	sendWindow(t, ids, 46, 60, recovered, control)
	answersAt(t, ids, 60, control, recovered)

	// Replay reproduced the per-stream counters too.
	for _, id := range ids {
		w := mustInfo(t, control, id).Corrections
		g := mustInfo(t, recovered, id).Corrections
		if w != g {
			t.Fatalf("stream %s: recovered sent=%d, control sent=%d", id, g, w)
		}
	}
}

// TestRecoveryReplaysAtRecordedTick: a query can roll a replica past the
// tick of a correction that then arrives late, so the correction takes
// effect at the replica's tick, not at its own. The log records that
// apply tick and recovery must replay there — re-applying at m.Tick+1
// rebuilds a different replica than the one that crashed.
func TestRecoveryReplaysAtRecordedTick(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ids := []string{"alpha"}

	crashed := newDurable(t, dir)
	control := NewServerWith(Options{Metrics: telemetry.New()})
	registerAll(t, ids, crashed, control)
	sendWindow(t, ids, 0, 10, crashed, control)
	answersAt(t, ids, 40, control, crashed)
	sendWindow(t, ids, 18, 22, crashed, control)
	if err := crashed.WAL().Sync(); err != nil {
		t.Fatal(err)
	}

	recovered := newDurable(t, dir)
	defer recovered.Close()
	answersAt(t, ids, 60, control, recovered)
}

// TestCheckpointBoundsReplay: after a checkpoint, recovery restores the
// snapshot and replays only the records after its sequence.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ids := []string{"alpha", "beta"}

	crashed := newDurable(t, dir)
	control := NewServerWith(Options{Metrics: telemetry.New()})
	registerAll(t, ids, crashed, control)
	sendWindow(t, ids, 0, 30, crashed, control)
	if err := crashed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sendWindow(t, ids, 30, 40, crashed, control)
	if err := crashed.WAL().Sync(); err != nil {
		t.Fatal(err)
	}

	recovered := newDurable(t, dir)
	defer recovered.Close()
	stats := recovered.RecoveryStats()
	if stats.CheckpointStreams != len(ids) {
		t.Fatalf("checkpoint restored %d streams, want %d", stats.CheckpointStreams, len(ids))
	}
	// 40 workload ticks land ~1/3 of them per stream; the post-checkpoint
	// window is 10 ticks across 2 streams. The exact count matters less
	// than the bound: far fewer records than the whole history.
	if stats.RecordsReplayed == 0 || stats.RecordsReplayed > 10 {
		t.Fatalf("replayed %d records after checkpoint, want 1..10", stats.RecordsReplayed)
	}
	answersAt(t, ids, 45, control, recovered)
}

// TestUnsyncedTailIsLostButHarmless: traffic past the last sync
// vanishes in a crash, and a source re-sending that tail (what a
// reconnecting source does) lands cleanly — the dedupe guard only drops
// what the log actually preserved.
func TestUnsyncedTailIsLostButHarmless(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ids := []string{"alpha"}

	crashed := newDurable(t, dir)
	control := NewServerWith(Options{Metrics: telemetry.New()})
	registerAll(t, ids, crashed, control)
	sendWindow(t, ids, 0, 20, crashed, control)
	if err := crashed.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	// This window stays in the group-commit buffer: durable on control,
	// lost in the crash.
	sendWindow(t, ids, 20, 30, crashed)

	recovered := newDurable(t, dir)
	defer recovered.Close()
	// Re-send the lost tail (and a chunk of already-applied history —
	// the guard must drop exactly the replayed prefix, nothing else).
	sendWindow(t, ids, 0, 30, recovered, control)
	answersAt(t, ids, 30, control, recovered)
}

// TestGracefulCloseIsDurable: Close syncs, so a clean shutdown loses
// nothing even without an explicit Sync.
func TestGracefulCloseIsDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	ids := []string{"alpha", "beta"}

	first := newDurable(t, dir)
	control := NewServerWith(Options{Metrics: telemetry.New()})
	registerAll(t, ids, first, control)
	sendWindow(t, ids, 0, 25, first, control)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err) // idempotent
	}

	recovered := newDurable(t, dir)
	defer recovered.Close()
	answersAt(t, ids, 25, control, recovered)
}

// TestRecoveredServerServesConnections restarts the whole wire stack —
// listener and all — on the same log directory and queries it over TCP:
// recovery completes before the first frame is accepted.
func TestRecoveredServerServesConnections(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")

	first := newDurable(t, dir)
	if err := first.Register(RegisterPayload{ID: "s", Spec: durSpec(), Delta: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := first.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 5, Value: []float64{3.5}}); err != nil {
		t.Fatal(err)
	}
	want, err := first.Query(QueryPayload{ID: "s", Tick: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := newDurable(t, dir)
	defer recovered.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = recovered.Serve(l) }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The stream exists without any re-registration: recovery rebuilt it.
	ans, err := c.Query("s", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Estimate, want.Estimate) || ans.Bound != want.Bound {
		t.Fatalf("over-the-wire answer %+v, want %+v", ans, want)
	}
	// A reconnecting source's idempotent re-register adopts the
	// recovered stream instead of conflicting.
	if err := c.Register("s", durSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
}

// settledGoroutines waits for the goroutine count to stop moving — an
// earlier test's connection handlers may still be exiting — and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestFailedDurableOpenLeavesNoGoroutine: a server whose log cannot be
// opened is never built, so nothing of it runs — not even the clock an
// armed watchdog would have had.
func TestFailedDurableOpenLeavesNoGoroutine(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	for i := 0; i < 5; i++ {
		if _, err := NewDurableServer(Options{Metrics: telemetry.New(), StaleAfter: time.Second},
			Durability{Dir: file}); err == nil {
			t.Fatal("a log opened inside a regular file")
		}
	}
	if n := settledGoroutines(); n > base {
		t.Fatalf("%d goroutines after 5 failed opens, %d before", n, base)
	}
}

// TestCloseLeavesNoGoroutine: a bare server runs no goroutine; a durable
// one with the watchdog, both log cadences and the history clock (with
// health) armed runs exactly one for all of them; Close stops it.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	base := settledGoroutines()
	bare := NewServerWith(Options{Metrics: telemetry.New()})
	if n := settledGoroutines(); n != base {
		t.Fatalf("bare server: %d goroutines, %d before", n, base)
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	mon, st, _ := healthRig(t, reg, nil)
	srv, err := NewDurableServer(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler),
		StaleAfter: time.Second, Health: mon, History: st, HistoryEvery: time.Second},
		Durability{Dir: t.TempDir(), FlushEvery: time.Second, CheckpointEvery: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(); n != base+1 {
		t.Fatalf("armed server: %d goroutines, want %d", n, base+1)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(); n > base {
		t.Fatalf("%d goroutines after Close, %d before", n, base)
	}
}

// TestStalledPeerDoesNotStallWALSync: a peer that registers, falls silent
// and never reads wedges its own connection — the handler blocks on a
// reply the peer never takes — but not the node's duty goroutine. The
// resync request the watchdog owes that peer is dropped and counted
// rather than waited for, and the log keeps syncing on its cadence for
// everyone else.
func TestStalledPeerDoesNotStallWALSync(t *testing.T) {
	const flush = 10 * time.Millisecond
	reg := telemetry.New()
	srv, err := NewDurableServer(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler),
		StaleAfter: 40 * time.Millisecond}, Durability{Dir: t.TempDir(), FlushEvery: flush})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()
	if err := srv.Register(RegisterPayload{ID: "live", Spec: durSpec(), Delta: 0.5}); err != nil {
		t.Fatal(err)
	}

	mute, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	_ = mute.(*net.TCPConn).SetReadBuffer(4096)
	reg1, _ := json.Marshal(RegisterPayload{ID: "mute", Spec: durSpec(), Delta: 0.5})
	if err := WriteFrame(mute, FrameRegister, reg1); err != nil {
		t.Fatal(err)
	}
	// Metrics snapshots it never reads fill both socket buffers.
	go func() {
		_ = mute.SetWriteDeadline(time.Now().Add(5 * time.Second))
		for WriteFrame(mute, FrameMetrics, nil) == nil {
		}
	}()
	// The handler is wedged once it holds its connection for good: blocked
	// writing a reply the peer never reads. By then mute has been silent
	// past its deadline, and every scan owes it a push.
	held := 0
	waitFor(t, "the mute peer's handler to wedge", func() bool {
		srv.connMu.Lock()
		defer srv.connMu.Unlock()
		held++
		for cw := range srv.conns {
			if cw.mu.TryLock() {
				cw.mu.Unlock()
				held = 0
			}
		}
		return held >= 50 && slices.Contains(staleIDs(srv), "mute")
	})

	fsyncs := reg.Histogram("wal_fsync_seconds", telemetry.LatencyBuckets)
	const window = 300 * time.Millisecond
	before := fsyncs.Count()
	for start, tick := time.Now(), int64(0); time.Since(start) < window; tick++ {
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "live", Tick: tick, Value: []float64{1}}
		if err := srv.Apply(m); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if n := fsyncs.Count() - before; n < int64(window/flush)/3 {
		t.Fatalf("%d fsyncs in %v at a %v cadence: the stalled peer stalled the log", n, window, flush)
	}
	if reg.Counter("wire_pushes_dropped_total").Value() == 0 {
		t.Fatal("no resync push to the stalled peer was dropped")
	}
}
