package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
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
