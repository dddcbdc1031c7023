package wire

import (
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

// quiet discards a client's reconnect diagnostics so hammer tests don't
// flood the output.
func quiet(c *Client) { c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil)) }

// trackingListener remembers accepted connections so tests can sever
// them server-side, simulating crashes and network cuts.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (tl *trackingListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tl.mu.Lock()
	tl.conns = append(tl.conns, c)
	tl.mu.Unlock()
	return c, nil
}

func (tl *trackingListener) killConns() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	n := len(tl.conns)
	for _, c := range tl.conns {
		c.Close()
	}
	tl.conns = tl.conns[:0]
	return n
}

// startTrackedServer is startServer plus connection tracking and a
// private registry, so tests can sever live connections and read the
// server's counters without racing other tests.
func startTrackedServer(t *testing.T, opts Options) (*Server, *trackingListener, func()) {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = telemetry.New()
	}
	srv := NewServerWith(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackingListener{Listener: l}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(tl)
	}()
	return srv, tl, func() {
		srv.Close()
		tl.Close()
		tl.killConns()
		<-done
	}
}

func testPolicy() ReconnectPolicy {
	return ReconnectPolicy{MaxAttempts: 50, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
}

// Severing the connection mid-stream must be invisible above the client:
// the next send redials, replays the registration (which the server
// treats as a resume, keeping the replica), forces a snapshot resync,
// and the stream continues on the same advanced state.
func TestReconnectResumesStream(t *testing.T) {
	_, tl, shutdown := startTrackedServer(t, Options{})
	defer shutdown()
	c, err := DialReconnecting(tl.Addr().String(), testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	quiet(c)
	ns, err := NewNetworkedSource(c, source.Config{StreamID: "r", Spec: cvSpec(), Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewSine(1, 50, 10, 300, 0, 0.2, 2000)
	for i := 0; i < 1000; i++ {
		p, _ := gen.Next()
		if _, err := ns.Observe(p.Tick, p.Value); err != nil {
			t.Fatalf("tick %d: %v", p.Tick, err)
		}
	}
	if tl.killConns() == 0 {
		t.Fatal("no connection to sever")
	}
	for i := 1000; i < 2000; i++ {
		p, _ := gen.Next()
		if _, err := ns.Observe(p.Tick, p.Value); err != nil {
			t.Fatalf("tick %d after sever: %v", p.Tick, err)
		}
	}
	if c.Reconnects() == 0 {
		t.Fatal("client never reconnected")
	}
	if ns.Stats().ForcedResyncs == 0 {
		t.Fatal("reconnect did not force a resync")
	}
	// The replica resumed, not restarted: a query at the final tick works
	// and reflects the whole stream.
	ans, err := c.Query("r", 1999)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Tick != 1999 || len(ans.Estimate) == 0 {
		t.Fatalf("post-reconnect answer %+v", ans)
	}
}

// A conflicting re-registration (same id, different δ) must fail even
// through the reconnect path — resume is only for identical specs.
func TestReconnectRejectsConflictingRegistration(t *testing.T) {
	_, tl, shutdown := startTrackedServer(t, Options{})
	defer shutdown()
	c, err := DialReconnecting(tl.Addr().String(), testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	quiet(c)
	if err := c.Register("x", cvSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("x", cvSpec(), 0.9); err == nil {
		t.Fatal("conflicting registration accepted")
	}
}

// The wall-clock watchdog end to end: a registered stream goes silent,
// the server marks it stale and pushes FrameResyncRequest on the owning
// connection, the client surfaces it via PollFeedback, and traffic
// clears the verdict.
func TestServerWatchdogPushesResyncRequest(t *testing.T) {
	srv, tl, shutdown := startTrackedServer(t, Options{StaleAfter: 40 * time.Millisecond})
	defer shutdown()
	c, err := DialReconnecting(tl.Addr().String(), testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	quiet(c)
	var mu sync.Mutex
	var pushed []string
	c.OnResyncRequest = func(id string) {
		mu.Lock()
		pushed = append(pushed, id)
		mu.Unlock()
	}
	ns, err := NewNetworkedSource(c, source.Config{StreamID: "w", Spec: cvSpec(), Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Observe(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Silence: wait out the deadline, then poll for the push.
	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(10 * time.Millisecond)
		if _, err := c.PollFeedback(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n := len(pushed)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no resync request pushed; stale streams = %v", srv.StaleStreams())
		}
	}
	mu.Lock()
	if pushed[0] != "w" {
		t.Fatalf("push for stream %q, want w", pushed[0])
	}
	mu.Unlock()
	if len(srv.StaleStreams()) == 0 {
		t.Fatal("server does not list the stream as stale")
	}
	// The push marked the source for resync; traffic clears the verdict.
	if _, err := ns.Observe(1, []float64{500}); err != nil {
		t.Fatal(err)
	}
	if ns.Stats().ForcedResyncs == 0 {
		t.Fatal("push did not force a resync")
	}
	deadline = time.Now().Add(2 * time.Second)
	for len(srv.StaleStreams()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream still stale after traffic: %v", srv.StaleStreams())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The reconnect hammer, meant for -race: one goroutine streams through a
// reconnecting source while another repeatedly severs every live
// connection. The stream must survive, and the server's monotonic-tick
// guard must ensure no correction was applied twice — replayed tails
// land in wire_duplicates_dropped_total instead of the replica.
func TestReconnectHammer(t *testing.T) {
	reg := telemetry.New()
	srv, tl, shutdown := startTrackedServer(t, Options{Metrics: reg, StaleAfter: 25 * time.Millisecond})
	defer shutdown()
	c, err := DialReconnecting(tl.Addr().String(), ReconnectPolicy{
		MaxAttempts: 200, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	quiet(c)
	ns, err := NewNetworkedSource(c, source.Config{StreamID: "h", Spec: cvSpec(), Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var killerDone sync.WaitGroup
	killerDone.Add(1)
	go func() {
		defer killerDone.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(7 * time.Millisecond):
				tl.killConns()
			}
		}
	}()

	const ticks = 3000
	gen := stream.NewSine(3, 50, 10, 300, 0, 0.2, ticks)
	sent := int64(0)
	for i := 0; i < ticks; i++ {
		p, _ := gen.Next()
		s, err := ns.Observe(p.Tick, p.Value)
		if err != nil {
			t.Fatalf("tick %d: %v", p.Tick, err)
		}
		if s {
			sent++
		}
	}
	close(stop)
	killerDone.Wait()

	if c.Reconnects() == 0 {
		t.Fatal("hammer never forced a reconnect")
	}
	// No message applied twice: every applied correction consumed a
	// distinct tick, so applies can never exceed the gate's sends. The
	// duplicate counter absorbs replayed tails instead.
	info := mustInfo(t, srv, "h")
	applied := info.Corrections
	if applied > sent {
		t.Fatalf("server applied %d corrections for %d gate sends — a message was applied twice", applied, sent)
	}
	dupes := info.Duplicates
	t.Logf("hammer: %d reconnects, %d gate sends, %d applied, %d duplicate frames dropped",
		c.Reconnects(), sent, applied, dupes)
	// And the stream still works end to end.
	ans, err := c.Query("h", ticks-1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Tick != ticks-1 {
		t.Fatalf("final query answered tick %d", ans.Tick)
	}
}
