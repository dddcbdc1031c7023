package wire

import (
	"log/slog"
	"strings"
	"testing"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/telemetry"
)

// streamConn is a handle connection with stream "s" registered on it, as
// handle 0.
func streamConn(t *testing.T, srv *Server) *connWriter {
	t.Helper()
	cw := handleConn(t, srv)
	if err := registerOn(t, srv, cw, RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 1}); err != nil {
		t.Fatal(err)
	}
	return cw
}

// TestFrameHandleHistogram checks that each inbound frame kind lands in
// its own wire_frame_handle_seconds series.
func TestFrameHandleHistogram(t *testing.T) {
	reg := telemetry.New()
	srv := NewServerWith(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()

	var msg netsim.Message
	cw := streamConn(t, srv)
	m := netsim.Message{Kind: netsim.KindCorrection, Tick: 0, Value: []float64{1}}
	payload, err := m.AppendEncodeHandle(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.dispatch(cw, FrameMessage, payload, &msg); err != nil {
		t.Fatal(err)
	}
	if err := srv.dispatch(cw, FrameMessage, payload, &msg); err != nil {
		t.Fatal(err) // duplicate tick: dropped, still timed
	}

	want := map[string]int64{`{kind="message"}`: 2, `{kind="register"}`: 1}
	for _, s := range reg.Snapshot() {
		if s.Name != "wire_frame_handle_seconds" {
			continue
		}
		if s.Count != want[s.Labels] {
			t.Errorf("series %q observed %d frames, want %d", s.Labels, s.Count, want[s.Labels])
		}
		delete(want, s.Labels)
	}
	if len(want) != 0 {
		t.Errorf("missing frame-kind series: %v", want)
	}
}

// TestMessageDispatchZeroAlloc pins the pooled fast path: a steady
// stream of corrections through dispatch — decode, dedupe check,
// replica advance, apply, per-kind latency observation — allocates
// nothing once warm.
func TestMessageDispatchZeroAlloc(t *testing.T) {
	reg := telemetry.New()
	srv := NewServerWith(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()

	var msg netsim.Message
	cw := streamConn(t, srv)
	m := netsim.Message{Kind: netsim.KindCorrection, Value: []float64{1}}
	var buf []byte
	tick := int64(0)
	// Warm the path: first apply grows predictor state.
	for ; tick < 8; tick++ {
		m.Tick = tick
		buf = buf[:0]
		buf, _ = m.AppendEncodeHandle(buf, 0)
		if err := srv.dispatch(cw, FrameMessage, buf, &msg); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		m.Tick = tick
		tick++
		buf = buf[:0]
		buf, _ = m.AppendEncodeHandle(buf, 0)
		if err := srv.dispatch(cw, FrameMessage, buf, &msg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("correction dispatch allocates %.2f per frame, want 0", avg)
	}
}

// healthRig builds a monitor and the 1-tick history store it reads over
// reg, transitions into hook, and the driver that ticks the pair.
func healthRig(t *testing.T, reg *telemetry.Registry, hook func(health.Transition)) (*health.Monitor, *history.Store, func()) {
	t.Helper()
	mon := health.NewMonitor(health.Config{
		WindowTicks: 1, Windows: 16, FastWindows: 2, SlowWindows: 4,
		ResolveAfter: 2, Registry: reg, Logger: slog.New(slog.DiscardHandler), OnTransition: hook,
	})
	st, err := history.NewStore(history.Config{Registry: reg, Tiers: []history.Tier{{Every: 1, Len: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	return mon, st, func() { st.Tick(); mon.Tick() }
}

// TestConfigureHealth checks the default SLO wiring: the four objectives
// name the server's registry series, clean traffic stays OK, a stale
// stream pages through the streams-stale objective, and a monitor with
// no history to read is refused at construction.
func TestConfigureHealth(t *testing.T) {
	reg := telemetry.New()
	mon, st, tick := healthRig(t, reg, nil)
	if _, err := NewDurableServer(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler), Health: mon},
		Durability{Dir: t.TempDir()}); err == nil {
		t.Fatal("a server with Health and no History was built")
	}
	srv := NewServerWith(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler), Health: mon, History: st})
	defer srv.Close()

	// Clean traffic: corrections arrive, nothing pages.
	var msg netsim.Message
	cw := streamConn(t, srv)
	for at := int64(0); at < 8; at++ {
		m := netsim.Message{Kind: netsim.KindCorrection, Tick: at, Value: []float64{1}}
		payload, _ := m.AppendEncodeHandle(nil, 0)
		if err := srv.dispatch(cw, FrameMessage, payload, &msg); err != nil {
			t.Fatal(err)
		}
		tick()
	}
	snap := mon.Snapshot()
	if snap.Severity != "ok" || snap.ActiveAlerts != 0 {
		t.Fatalf("clean traffic severity = %q (%d active), want ok", snap.Severity, snap.ActiveAlerts)
	}
	want := map[string]string{
		"audit-error-ratio": "audit_delta_violations_total audit_ticks_total",
		"streams-stale":     "streams_stale",
		"frame-p99":         `wire_frame_handle_seconds{kind="message"}`,
		"freshness-p99":     "wire_e2e_latency_seconds",
	}
	for _, s := range snap.SLOs {
		if got := strings.Join(s.Series, " "); got != want[s.Name] {
			t.Errorf("SLO %q reads %q, want %q", s.Name, got, want[s.Name])
		}
		delete(want, s.Name)
	}
	if len(want) != 0 {
		t.Errorf("SLOs not declared: %v", want)
	}

	// A stale stream (watchdog sets the gauge) pages within a window.
	reg.Gauge("streams_stale").Set(1)
	tick()
	if sev := mon.Severity(); sev != health.SevPage {
		t.Errorf("stale stream severity = %v, want page", sev)
	}

	stats := srv.HealthStreams()
	if len(stats) != 1 || stats[0].ID != "s" || stats[0].Sent == 0 || stats[0].Delta != 1 {
		t.Errorf("HealthStreams = %+v", stats)
	}
}

// TestFrameP99BundleEmbedsMessageKindOnly: the frame-p99 objective
// burns against the message kind's handling histogram, and the bundle
// its page captures embeds that series' history and no other frame
// kind's.
func TestFrameP99BundleEmbedsMessageKindOnly(t *testing.T) {
	reg := telemetry.New()
	rec := diag.NewRecorder(diag.Options{Registry: reg})
	mon, st, tick := healthRig(t, reg, rec.OnTransition)
	rec.AttachHealth(mon)
	rec.AttachHistory(st)
	srv := NewServerWith(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler),
		Health: mon, History: st, Diag: rec})
	defer srv.Close()
	tick()
	for _, kind := range []string{"message", "query", "register"} {
		slow := reg.Histogram("wire_frame_handle_seconds", telemetry.LatencyBuckets, "kind", kind)
		for i := 0; i < 10; i++ {
			slow.Observe(0.5)
		}
	}
	tick()
	tick()
	bundles := rec.Bundles()
	if len(bundles) != 1 || bundles[0].Reason != "page:frame-p99" || bundles[0].History == nil {
		t.Fatalf("bundles = %+v, want one frame-p99 page with history", bundles)
	}
	var kinds []string
	for _, sr := range bundles[0].History.Series {
		if sr.Name == "wire_frame_handle_seconds" {
			kinds = append(kinds, sr.Labels)
		}
	}
	if len(kinds) != 1 || kinds[0] != `{kind="message"}` {
		t.Errorf("bundle embeds wire_frame_handle_seconds%v, want only {kind=\"message\"}", kinds)
	}
}
