package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/wire"
)

// TestServeWithoutHTTP runs the binary's whole main path on an ephemeral
// port with no -http: nothing that rides that flag — flight recorder,
// monitor, history — is built, and the protocol works all the same. A
// stream is registered, corrected and queried over a real connection,
// the server's own metrics (reachable over the wire without HTTP) account
// for it, and closing the listener shuts the server down cleanly.
func TestServeWithoutHTTP(t *testing.T) {
	l, done := serve(t, "-addr", "127.0.0.1:0")

	c, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.05, R: 0.1}}
	if err := c.Register("s", spec, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.SendCorrection(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 3, Value: []float64{2.5}}); err != nil {
		t.Fatal(err)
	}
	// Same connection, so the query is handled after the correction: on
	// the correction's own tick the answer is the measurement, bound 0.
	ans, err := c.Query("s", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Estimate) != 1 || ans.Estimate[0] != 2.5 || ans.Bound != 0 {
		t.Errorf("answer at the correction's tick: %+v, want the measurement 2.5 with bound 0", ans)
	}
	if ans, err = c.Query("s", 10); err != nil || ans.Bound != 0.5 {
		t.Errorf("answer past the correction: %+v, err %v, want bound δ = 0.5", ans, err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "corrections_sent_total") || strings.Contains(text, "diag_") {
		t.Errorf("metrics over the wire: want corrections_sent_total and no diag_ series (no recorder without -http):\n%s", text)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not return after its listener closed")
	}
}

// TestServeHTTPHealthOnHistoryClock runs the main path with -http and a
// 10ms -history-interval: the one ticker records the history and then
// evaluates the monitor, so within seconds /debug/health reports a
// closed 60-tick window and the four SLOs, each naming the registry
// series it burns against; /readyz is 200; and /debug/history lists the
// 60-tick tier those windows are.
func TestServeHTTPHealthOnHistoryClock(t *testing.T) {
	// A free loopback port for -http: serveHTTP binds it by address.
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := hl.Addr().String()
	hl.Close()
	// The server registers on telemetry.Default; leave it empty for the
	// next test (TestServeWithoutHTTP asserts no diag_ series).
	defer telemetry.Default.Reset()

	l, done := serve(t, "-addr", "127.0.0.1:0", "-http", httpAddr, "-history-interval", "10ms")
	defer func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	get := func(path string, v any) int {
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			return 0 // not serving yet
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	var payload health.DebugPayload
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		payload = health.DebugPayload{}
		if get("/debug/health", &payload) == 200 && payload.WindowsClosed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no health window closed within 10s at -history-interval 10ms: %+v", payload.Snapshot)
		}
	}
	want := map[string]string{
		"audit-error-ratio": "audit_delta_violations_total audit_ticks_total",
		"streams-stale":     "streams_stale",
		"frame-p99":         `wire_frame_handle_seconds{kind="message"}`,
		"freshness-p99":     "wire_e2e_latency_seconds",
	}
	if len(payload.SLOs) != len(want) {
		t.Errorf("/debug/health lists %d SLOs, want %d", len(payload.SLOs), len(want))
	}
	for _, s := range payload.SLOs {
		if got := strings.Join(s.Series, " "); got != want[s.Name] {
			t.Errorf("SLO %q reads %q, want %q", s.Name, got, want[s.Name])
		}
	}
	if code := get("/readyz", nil); code != 200 {
		t.Errorf("/readyz = %d, want 200", code)
	}
	var dump history.DumpPayload
	if code := get("/debug/history", &dump); code != 200 {
		t.Fatalf("/debug/history = %d", code)
	}
	found := false
	for _, tier := range dump.Tiers {
		found = found || tier.Every == int64(payload.WindowTicks)
	}
	if payload.WindowTicks != 60 || !found {
		t.Errorf("monitor windows are %d ticks; history tiers %+v", payload.WindowTicks, dump.Tiers)
	}
}

// serve starts run with args on a goroutine and returns the bound
// listener — closing it stops the server — and run's result.
func serve(t *testing.T, args ...string) (net.Listener, <-chan error) {
	t.Helper()
	listening := make(chan net.Listener, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, func(l net.Listener) { listening <- l }) }()
	select {
	case l := <-listening:
		return l, done
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
		return nil, nil
	}
}

// eventually polls cond every 10ms for up to 10s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
	}
}

// TestServeDurableOneClock runs the deployed flag set — WAL, checkpoints,
// the watchdog, -http on a 10ms history clock — and sees every duty the
// server's one goroutine runs land: a checkpoint on disk, streams_stale 1
// once the stream falls silent, a closed health window. Closing the
// listener returns run with no goroutine left, and a second run on the
// same directory answers from the recovered replica bit for bit.
func TestServeDurableOneClock(t *testing.T) {
	defer telemetry.Default.Reset()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := hl.Addr().String()
	hl.Close()
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-wal-dir", dir, "-wal-flush", "10ms",
		"-checkpoint-every", "50ms", "-stale-after", "100ms", "-http", httpAddr, "-history-interval", "10ms"}
	web := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	base := runtime.NumGoroutine()

	l, done := serve(t, args...)
	c, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	if err := c.Register("s", spec, 0.5); err != nil {
		t.Fatal(err)
	}
	for tick, v := range []float64{1, 2.5} {
		if err := c.SendCorrection(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: int64(tick), Value: []float64{v}}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Query("s", 10)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "checkpoint on disk", func() bool {
		ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		return len(ckpts) > 0
	})
	eventually(t, "streams_stale 1 in the metrics frame", func() bool {
		text, err := c.Metrics()
		return err == nil && strings.Contains(text, "\nstreams_stale 1\n")
	})
	eventually(t, "a closed health window", func() bool {
		resp, err := web.Get("http://" + httpAddr + "/debug/health")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var payload health.DebugPayload
		return json.NewDecoder(resp.Body).Decode(&payload) == nil && payload.WindowsClosed >= 1
	})
	c.Close()
	l.Close()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	eventually(t, "goroutines back to where they started", func() bool { return runtime.NumGoroutine() <= base })

	l, done = serve(t, args...)
	defer func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	c, err = wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Query("s", 10)
	if err != nil {
		t.Fatal(err)
	}
	same := got.Bound == want.Bound && len(got.Estimate) == len(want.Estimate)
	for i := range got.Estimate {
		same = same && math.Float64bits(got.Estimate[i]) == math.Float64bits(want.Estimate[i])
	}
	if !same {
		t.Errorf("recovered answer %+v, before the restart %+v", got, want)
	}
}
