package wire

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, FrameQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameQuery || string(got) != string(payload) {
		t.Fatalf("round trip: type %d payload %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameOK, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameOK || len(got) != 0 {
		t.Fatalf("empty frame: type %d payload %q", typ, got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameMessage, make([]byte, MaxFrameSize)); err != ErrFrameTooLarge {
		t.Fatalf("oversize write err = %v", err)
	}
	// Fabricate an oversized length prefix.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("oversize read err = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, FrameQuery, 'x'}) // announces 10, has 2
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	var zero bytes.Buffer
	zero.Write([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(&zero); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// startServer runs a wire server on a loopback listener, returning its
// address and a shutdown func.
func startServer(t *testing.T) (*Server, string, func()) {
	t.Helper()
	srv := NewServer()
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

func cvSpec() predictor.Spec {
	return predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.01, R: 0.1}}
}

// mustInfo reads one stream's record — where its per-stream numbers live.
func mustInfo(t *testing.T, s *Server, id string) server.StreamInfo {
	t.Helper()
	info, err := s.srv.Info(id, -1)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// regTotal sums every series of one counter, as readers of the registry's
// totals do.
func regTotal(reg *telemetry.Registry, name string) int64 {
	var n int64
	for _, smp := range reg.Snapshot() {
		if smp.Name == name {
			n += int64(smp.Value)
		}
	}
	return n
}

// checkTotals holds the registry's three totals against the sum of the
// per-stream records. carried is the corrections the records brought out
// of a checkpoint: that count is restored with the replica, while the
// registry restarts at zero with the process.
func checkTotals(t *testing.T, s *Server, carried int64) {
	t.Helper()
	var sum server.StreamInfo
	for _, info := range s.srv.Infos() {
		sum.Corrections += info.Corrections
		sum.Suppressed += info.Suppressed
		sum.Duplicates += info.Duplicates
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"corrections_sent_total", regTotal(s.Registry(), "corrections_sent_total"), sum.Corrections - carried},
		{"corrections_suppressed_total", regTotal(s.Registry(), "corrections_suppressed_total"), sum.Suppressed},
		{"wire_duplicates_dropped_total", regTotal(s.Registry(), "wire_duplicates_dropped_total"), sum.Duplicates},
	} {
		if c.got != c.want {
			t.Fatalf("%s sums to %d, the stream records to %d", c.name, c.got, c.want)
		}
	}
}

func TestTCPEndToEnd(t *testing.T) {
	_, addr, shutdown := startServer(t)
	defer shutdown()

	srcConn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srcConn.Close()
	queryConn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer queryConn.Close()

	delta := 0.5
	ns, err := NewNetworkedSource(srcConn, source.Config{
		StreamID: "tcp-stream", Spec: cvSpec(), Delta: delta,
	})
	if err != nil {
		t.Fatal(err)
	}

	gen := stream.NewSine(3, 50, 8, 200, 0, 0.1, 1500)
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		sent, err := ns.Observe(p.Tick, p.Value)
		if err != nil {
			t.Fatal(err)
		}
		// Assert the bound by querying on the source's own connection:
		// frames on one connection are dispatched in order, so this
		// query is guaranteed to see every prior correction. (A query on
		// another connection can race in-flight corrections — checked
		// separately below as a liveness property only.)
		if p.Tick%25 == 7 && !sent {
			ans, err := srcConn.Query("tcp-stream", p.Tick)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ans.Estimate[0]-p.Value[0]) > delta+1e-9 {
				t.Fatalf("tick %d: TCP answer %v vs measurement %v exceeds δ=%v",
					p.Tick, ans.Estimate[0], p.Value[0], delta)
			}
			if ans.Bound != delta {
				t.Fatalf("bound = %v, want %v", ans.Bound, delta)
			}
		}
	}
	// A separate query connection answers too (value freshness there is
	// subject to cross-connection message races, so no bound assertion).
	if _, err := queryConn.Query("tcp-stream", 1499); err != nil {
		t.Fatalf("query connection: %v", err)
	}
	if ns.Stats().Suppressed == 0 {
		t.Fatal("no suppression over TCP")
	}
	if float64(ns.Stats().Sent) > float64(ns.Stats().Ticks)/2 {
		t.Fatalf("sent %d of %d ticks — suppression ineffective", ns.Stats().Sent, ns.Stats().Ticks)
	}
}

func TestTCPServerErrors(t *testing.T) {
	_, addr, shutdown := startServer(t)
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Query for an unregistered stream returns a server error.
	if _, err := c.Query("ghost", 0); err == nil || !strings.Contains(err.Error(), "unknown stream") {
		t.Fatalf("ghost query err = %v", err)
	}
	// Bad registration (invalid spec) is rejected.
	if err := c.Register("bad", predictor.Spec{Kind: "bogus"}, 1); err == nil {
		t.Fatal("bad spec registered")
	}
	// Identical re-registration is a resume (reconnect support)...
	if err := c.Register("a", cvSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("a", cvSpec(), 1); err != nil {
		t.Fatalf("identical re-registration should resume, got %v", err)
	}
	// ...but a conflicting one (different δ) is rejected.
	if err := c.Register("a", cvSpec(), 2); err == nil {
		t.Fatal("conflicting re-registration accepted")
	}
	// Connection must still be usable after errors.
	if _, err := c.Query("a", 5); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestServerLazyAdvance(t *testing.T) {
	srv := NewServer()
	if err := srv.Register(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 1}); err != nil {
		t.Fatal(err)
	}
	// Correction at tick 10 teaches the replica a ramp through two
	// points; a query at tick 100 must coast the dynamics forward.
	msg := func(tick int64, v float64) *netsim.Message {
		return &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: tick, Value: []float64{v}}
	}
	if err := srv.Apply(msg(0, 0)); err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 20; tick++ {
		if err := srv.Apply(msg(tick, float64(tick)*2)); err != nil {
			t.Fatal(err)
		}
	}
	ans, err := srv.Query(QueryPayload{ID: "s", Tick: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Slope 2/tick ⇒ expect ≈200 at tick 100.
	if math.Abs(ans.Estimate[0]-200) > 10 {
		t.Fatalf("lazy advance estimate %v, want ≈200", ans.Estimate[0])
	}
	// Out-of-order (stale) queries don't rewind: a query at an older tick
	// answers from the already-advanced replica.
	if _, err := srv.Query(QueryPayload{ID: "s", Tick: 50}); err != nil {
		t.Fatalf("stale query: %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	// Stress the wire server with several source connections streaming
	// corrections while query connections interrogate all streams — the
	// deployment shape the mutexed server exists for. Run under -race.
	_, addr, shutdown := startServer(t)
	defer shutdown()

	const nSources = 6
	const perSource = 400
	errs := make(chan error, nSources+2)
	done := make(chan struct{})

	for i := 0; i < nSources; i++ {
		id := string(rune('a' + i))
		go func(id string, seed int64) {
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ns, err := NewNetworkedSource(c, source.Config{StreamID: id, Spec: cvSpec(), Delta: 0.5})
			if err != nil {
				errs <- err
				return
			}
			gen := stream.NewSine(seed, 10, 5, 100, 0, 0.1, perSource)
			for {
				p, ok := gen.Next()
				if !ok {
					break
				}
				if _, err := ns.Observe(p.Tick, p.Value); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(id, int64(i+1))
	}

	// Two query connections poll all streams until sources finish.
	for q := 0; q < 2; q++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				return // query-side dial failures surface via missing answers
			}
			defer c.Close()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := 0; i < nSources; i++ {
					// Streams register concurrently; unknown-stream
					// errors are expected early and tolerated.
					_, _ = c.Query(string(rune('a'+i)), int64(perSource-1))
				}
			}
		}()
	}

	for i := 0; i < nSources; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(done)

	// After the dust settles, every stream answers at its final tick.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < nSources; i++ {
		ans, err := c.Query(string(rune('a'+i)), perSource-1)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if len(ans.Estimate) != 1 {
			t.Fatalf("stream %d: estimate %v", i, ans.Estimate)
		}
	}
}

func TestServerRejectsRunawayTick(t *testing.T) {
	srv := NewServer()
	if err := srv.Register(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 1}); err != nil {
		t.Fatal(err)
	}
	// A query (or correction) with an absurd tick must be refused rather
	// than spinning the replica forward while holding the lock.
	if _, err := srv.Query(QueryPayload{ID: "s", Tick: int64(server.MaxAdvancePerMessage) + 10}); err == nil {
		t.Fatal("runaway tick accepted")
	}
	msg := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s",
		Tick: int64(server.MaxAdvancePerMessage) * 2, Value: []float64{1}}
	if err := srv.Apply(msg); err == nil {
		t.Fatal("runaway correction accepted")
	}
	// Normal operation still works afterwards.
	if _, err := srv.Query(QueryPayload{ID: "s", Tick: 100}); err != nil {
		t.Fatal(err)
	}
}

// A frame the server refuses — a tick beyond the advance limit, or one
// whose apply fails — must leave the dedupe guard where it was: otherwise
// one corrupt tick drops every later legitimate correction below it as a
// duplicate and silences the stream for good.
func TestRefusedFrameDoesNotPoisonDedupeGuard(t *testing.T) {
	reg := telemetry.New()
	srv := NewServerWith(Options{Metrics: reg})
	if err := srv.Register(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 1}); err != nil {
		t.Fatal(err)
	}
	msg := func(tick int64, v ...float64) *netsim.Message {
		return &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: tick, Value: v}
	}
	if err := srv.Apply(msg(3, 1)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*netsim.Message{
		msg(int64(server.MaxAdvancePerMessage)+100, 1), // refused before any state is touched
		msg(math.MaxInt64, 1),                          // must not wrap past the limit
		msg(4, 1, 2),                                   // wrong dimension: the apply itself fails
	} {
		if err := srv.Apply(bad); err == nil {
			t.Fatalf("tick %d with %d values accepted", bad.Tick, len(bad.Value))
		}
	}
	if err := srv.Apply(msg(5, 2)); err != nil {
		t.Fatal(err)
	}
	info := mustInfo(t, srv, "s")
	if info.Corrections != 2 {
		t.Fatalf("corrections applied = %d, want 2", info.Corrections)
	}
	if info.Duplicates != 0 {
		t.Fatalf("duplicates dropped = %d, want 0", info.Duplicates)
	}
}

func TestServerApplyUnknownStream(t *testing.T) {
	srv := NewServer()
	err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "nope", Tick: 0, Value: []float64{1}})
	if err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestMetricsFrame(t *testing.T) {
	// A private registry isolates this test's counters from other tests
	// sharing telemetry.Default.
	reg := telemetry.New()
	srv := NewServerWith(Options{Metrics: reg})
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
	defer func() { l.Close(); <-done }()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The source gate keeps its counters on telemetry.Default; reg holds
	// only the server-side view (in production they are separate
	// processes, and in-process sharing would mix the gate's per-stream
	// series into the server's totals of the same name).
	ns, err := NewNetworkedSource(c, source.Config{
		StreamID: "tel-stream", Spec: cvSpec(), Delta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewSine(5, 50, 8, 200, 0, 0.1, 600)
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := ns.Observe(p.Tick, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query("tel-stream", 599); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE corrections_sent_total counter",
		"# TYPE corrections_suppressed_total counter",
		`wire_bytes_total{direction="in"}`,
		`wire_bytes_total{direction="out"}`,
		"# TYPE query_latency_seconds histogram",
		"query_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `{stream="tel-stream"}`) {
		t.Fatalf("metrics exposition has a per-stream series:\n%s", text)
	}
	if got := regTotal(reg, "server_queries_total"); got != 1 {
		t.Fatalf("server_queries_total sums to %d, want 1", got)
	}

	// The server's view of suppression must reconcile with the source's
	// gate: every advanced tick is either a correction or suppressed.
	st := ns.Stats()
	info := mustInfo(t, srv, "tel-stream")
	sent, suppressed := info.Corrections, info.Suppressed
	if sent != regTotal(reg, "corrections_sent_total") || suppressed != regTotal(reg, "corrections_suppressed_total") {
		t.Fatalf("one stream's record (sent %d, suppressed %d) disagrees with the registry totals", sent, suppressed)
	}
	if sent != st.Sent {
		t.Fatalf("server counted %d corrections, source sent %d", sent, st.Sent)
	}
	if sent+suppressed != st.Ticks {
		t.Fatalf("sent %d + suppressed %d != %d ticks", sent, suppressed, st.Ticks)
	}

	// The connection keeps working after a metrics exchange.
	if _, err := c.Query("tel-stream", 599); err != nil {
		t.Fatalf("connection dead after metrics frame: %v", err)
	}
}
