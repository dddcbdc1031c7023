package wire

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/source"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// startTracedServer runs a wire server with a private, enabled journal.
func startTracedServer(t *testing.T) (*Server, string, func()) {
	t.Helper()
	j := trace.NewJournal(4, 8192)
	j.SetEnabled(true)
	srv := NewServerWith(Options{Metrics: telemetry.New(), Trace: j})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return srv, l.Addr().String(), func() {
		l.Close()
		<-done
	}
}

// waitFor polls until cond holds or the deadline passes — trace frames
// are fire-and-forget, so the server ingests them asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestTraceOverWire drives a traced networked source against a traced
// server and checks the full in-band story: trace IDs ride corrections
// into the server's journal, gate events (including suppressed ticks,
// which send no correction) arrive via FrameTrace batches, and the
// server-side auditor reconciles exactly with the client gate — zero δ
// violations on a loss-free TCP link.
func TestTraceOverWire(t *testing.T) {
	srv, addr, shutdown := startTracedServer(t)
	defer shutdown()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cj := trace.NewJournal(2, 4096) // the source's private journal
	cj.SetEnabled(true)
	const delta = 0.5
	ns, err := NewNetworkedSource(conn, source.Config{
		StreamID: "w", Spec: cvSpec(), Delta: delta,
		Telemetry: telemetry.New(), Trace: cj,
	})
	if err != nil {
		t.Fatal(err)
	}

	const ticks = 200
	for i := 0; i < ticks; i++ {
		z := []float64{3*math.Sin(float64(i)/25) + 0.05*math.Cos(float64(i))}
		if _, err := ns.Observe(int64(i), z); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.FlushTrace(); err != nil { // final partial batch
		t.Fatal(err)
	}
	gate := ns.Stats()
	if gate.Sent == 0 || gate.Suppressed == 0 {
		t.Fatalf("degenerate run: %+v", gate)
	}

	// Auto-flush must have drained mid-run batches, not just the final
	// explicit flush: after 200 observations at TraceFlushEvery=64 the
	// private journal holds at most the final partial batch.
	if n := cj.Recorded(); n != 0 {
		t.Fatalf("client journal still holds %d events after FlushTrace", n)
	}

	waitFor(t, "audited ticks", func() bool {
		return srv.Auditor().Stats("w").Ticks == ticks
	})
	st := srv.Auditor().Stats("w")
	if st.Suppressed != gate.Suppressed {
		t.Fatalf("server audited %d suppressed, gate suppressed %d", st.Suppressed, gate.Suppressed)
	}
	if st.Violations != 0 {
		t.Fatalf("loss-free TCP link produced %d δ violations", st.Violations)
	}

	// The server journal holds the ingested gate events AND its own
	// apply events, joined per correction by the in-band trace ID.
	evs := srv.Trace().StreamEvents("w")
	var gates, applies, traced int
	for _, ev := range evs {
		switch ev.Stage {
		case trace.StageGate:
			gates++
			if ev.TraceID != 0 {
				traced++
			}
		case trace.StageApply:
			applies++
			if ev.TraceID == 0 {
				t.Fatalf("apply event without trace id: %+v", ev)
			}
		}
	}
	if int64(gates) != ticks {
		t.Fatalf("server journal has %d gate events, want %d", gates, ticks)
	}
	if int64(applies) != gate.Sent || int64(traced) != gate.Sent {
		t.Fatalf("applies=%d traced gates=%d, want both %d", applies, traced, gate.Sent)
	}
	// Spot-check one full span: every sent correction's trace ID links
	// its gate decision to its server-side apply.
	for _, ev := range evs {
		if ev.Stage != trace.StageGate || ev.TraceID == 0 {
			continue
		}
		chain := srv.Trace().TraceEvents(ev.TraceID)
		var sawApply bool
		for _, e := range chain {
			sawApply = sawApply || e.Stage == trace.StageApply
		}
		if !sawApply {
			t.Fatalf("trace %d has no apply event: %+v", ev.TraceID, chain)
		}
		break
	}

	// The audit's counters surface through the server's registry.
	if got := regTotal(srv.Registry(), "audit_ticks_total"); got != ticks {
		t.Fatalf("telemetry reports %d audited ticks, want %d", got, ticks)
	}
	if got := regTotal(srv.Registry(), "audit_delta_violations_total"); got != 0 {
		t.Fatalf("telemetry reports %d violations", got)
	}
}

// TestSendTraceEmptyAndBad covers the degenerate frames: empty batches
// write nothing, and a malformed payload is refused — pushed as
// FrameRefused, reported once by the next FlushCorrections — without
// killing the connection or shifting a reply.
func TestSendTraceEmptyAndBad(t *testing.T) {
	srv, addr, shutdown := startTracedServer(t)
	defer shutdown()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.SendTrace(nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn.bw, FrameTrace, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if err := conn.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// The connection must still serve, and the metrics round trip gets
	// the metrics reply, not the refusal.
	if _, err := conn.Metrics(); err != nil {
		t.Fatalf("metrics after a bad trace frame: %v", err)
	}
	if err := conn.FlushCorrections(); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "bad trace payload") {
		t.Fatalf("bad trace frame reported as %v, want its refusal", err)
	}
	if err := conn.FlushCorrections(); err != nil {
		t.Fatalf("refusal reported twice: %v", err)
	}
	if n := srv.Trace().Recorded(); n != 0 {
		t.Fatalf("bad payloads recorded %d events", n)
	}
}

// TestTraceRefusedForUnregisteredStreams: the auditor keeps one entry per
// stream it hears of, so a trace frame may name only streams the node has a
// record of. 1,000 gate events for made-up ids grow it by nothing — the
// first refuses the frame, pushed as FrameRefused — and in a frame that
// mixes them, the events before the first unknown id stay ingested.
func TestTraceRefusedForUnregisteredStreams(t *testing.T) {
	srv, addr, shutdown := startTracedServer(t)
	defer shutdown()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gate := func(id string, tick int64) trace.Event {
		return trace.Event{StreamID: id, Tick: tick, Stage: trace.StageGate, Outcome: trace.OutcomeSuppressed, Value: 2, Aux: 1}
	}
	ghosts := make([]trace.Event, 1000)
	for i := range ghosts {
		ghosts[i] = gate(fmt.Sprintf("ghost-%04d", i), 0)
	}
	if err := conn.SendTrace(ghosts); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Metrics(); err != nil { // a round trip: the frame was handled
		t.Fatal(err)
	}
	if n := len(srv.Auditor().All()); n != 0 {
		t.Fatalf("auditor holds %d streams after 1,000 events for unregistered ids, want 0", n)
	}
	if err := conn.FlushCorrections(); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "ghost-0000") {
		t.Fatalf("unregistered trace events reported as %v, want a refusal naming ghost-0000", err)
	}

	if err := conn.Register("w", cvSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := conn.SendTrace([]trace.Event{gate("w", 0), gate("w", 1), gate("ghost", 2), gate("w", 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Metrics(); err != nil {
		t.Fatal(err)
	}
	if all := srv.Auditor().All(); len(all) != 1 || all[0].StreamID != "w" || all[0].Ticks != 2 || all[0].Violations != 2 {
		t.Fatalf("auditor holds %+v, want w's two events before the unknown id", all)
	}
	if err := conn.FlushCorrections(); !errors.Is(err, ErrServer) {
		t.Fatalf("mixed frame reported as %v, want its refusal", err)
	}
}

// TestWatchdogTraceInWallClockUnits: on the wall clock every watchdog
// event reports the stream's silence and its deadline in seconds — the
// recovery event too, which measures the silence the correction ended
// from when the stream was last heard.
func TestWatchdogTraceInWallClockUnits(t *testing.T) {
	const staleAfter = 30 * time.Millisecond
	j := trace.NewJournal(1, 64)
	j.SetEnabled(true)
	srv := NewServerWith(Options{Metrics: telemetry.New(), Trace: j, StaleAfter: staleAfter,
		Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()
	if err := srv.Register(RegisterPayload{ID: "w", Spec: cvSpec(), Delta: 0.5}); err != nil {
		t.Fatal(err)
	}
	apply := func(tick int64) {
		t.Helper()
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "w", Tick: tick, Value: []float64{1}}
		if err := srv.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	apply(0)
	waitFor(t, "the stream to go stale", func() bool { return len(staleIDs(srv)) == 1 })
	apply(1)
	var stale, recovered *trace.Event
	for _, ev := range j.StreamEvents("w") {
		switch ev.Outcome {
		case trace.OutcomeStale:
			stale = &ev
		case trace.OutcomeRecovered:
			recovered = &ev
		}
	}
	if stale == nil || recovered == nil {
		t.Fatalf("journal holds stale %v, recovered %v", stale, recovered)
	}
	for _, ev := range []*trace.Event{stale, recovered} {
		if ev.Stage != trace.StageWatchdog || math.Abs(ev.Aux-staleAfter.Seconds()) > 1e-12 {
			t.Errorf("%s event: deadline %v, want %v s", ev.Outcome, ev.Aux, staleAfter.Seconds())
		}
	}
	if stale.Value <= staleAfter.Seconds() || recovered.Value < stale.Value || recovered.Value > 5 {
		t.Errorf("silence: %v s when marked, %v s when it ended; deadline %v s",
			stale.Value, recovered.Value, staleAfter.Seconds())
	}
}
