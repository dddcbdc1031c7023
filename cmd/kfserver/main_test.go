package main

import (
	"encoding/json"
	"net"
	"net/http"
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
	listening := make(chan net.Listener, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, func(l net.Listener) { listening <- l })
	}()
	var l net.Listener
	select {
	case l = <-listening:
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	}

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

	listening := make(chan net.Listener, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-http", httpAddr, "-history-interval", "10ms"},
			func(l net.Listener) { listening <- l })
	}()
	var l net.Listener
	select {
	case l = <-listening:
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	}
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
