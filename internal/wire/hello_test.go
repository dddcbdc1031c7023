package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
)

// rawPeer speaks frames by hand, so a test controls every byte a client
// sends — a hello or none — and sees every frame the server returns.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawPeer{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (p *rawPeer) send(typ uint8, payload []byte) {
	p.t.Helper()
	if err := WriteFrame(p.conn, typ, payload); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawPeer) recv() (uint8, []byte) {
	p.t.Helper()
	typ, payload, err := ReadFrame(p.br)
	if err != nil {
		p.t.Fatal(err)
	}
	return typ, payload
}

// expect reads one frame and requires its type, returning the payload.
func (p *rawPeer) expect(want uint8) []byte {
	p.t.Helper()
	typ, payload := p.recv()
	if typ != want {
		p.t.Fatalf("got %s frame %q, want %s", FrameName(typ), payload, FrameName(want))
	}
	return payload
}

// hello opens the connection asking for caps and returns the grant.
func (p *rawPeer) hello(caps uint32) uint32 {
	p.t.Helper()
	p.send(FrameHello, appendHello(nil, caps))
	got, err := decodeHello(p.expect(FrameHello))
	if err != nil {
		p.t.Fatal(err)
	}
	return got
}

// registerHandle registers id and returns its handle on the connection.
func (p *rawPeer) registerHandle(id string) uint32 {
	p.t.Helper()
	buf, err := json.Marshal(RegisterPayload{ID: id, Spec: cvSpec(), Delta: 0.5})
	if err != nil {
		p.t.Fatal(err)
	}
	p.send(FrameRegister, buf)
	h, err := decodeHandle(p.expect(FrameOK))
	if err != nil {
		p.t.Fatal(err)
	}
	return h
}

// correctHandle sends one handle-form correction.
func (p *rawPeer) correctHandle(h uint32, tick int64, v float64) {
	p.t.Helper()
	m := netsim.Message{Kind: netsim.KindCorrection, Tick: tick, Value: []float64{v}}
	buf, err := m.AppendEncodeHandle(nil, h)
	if err != nil {
		p.t.Fatal(err)
	}
	p.send(FrameMessage, buf)
}

// ping is a barrier: every frame sent before it has been handled, and
// every reply to those frames read, once its pong arrives.
func (p *rawPeer) ping() {
	p.t.Helper()
	p.send(FramePing, make([]byte, 16))
	p.expect(FramePong)
}

func startQuietServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() { l.Close(); <-done; srv.Close() })
	return srv, l.Addr().String()
}

// A peer that meets the protocol floor gets the bytes it got before the
// floor existed. testdata/floor_client.bin is such a peer's whole session —
// a hello asking for bits 0|1, two registrations, a handle-form correction,
// a 64-record handle-form batch, a binary query, a binary query for an
// unknown stream, a correction on a handle the connection never assigned,
// a ping — and floor_server.bin every byte the server sent back before the
// floor (commit ea1f00a). Both were recorded once; never regenerate them.
func TestFloorPeerReplay(t *testing.T) {
	want, err := os.ReadFile("testdata/floor_server.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := replaySession(t, "testdata/floor_client.bin"); !bytes.Equal(got, want) {
		t.Fatalf("replies differ from the recorded session:\n got %q\nwant %q", got, want)
	}
}

// A peer below the floor is refused at its first frame. testdata/
// capless_client.bin is the session of a peer that never sent a hello
// (recorded at commit 3dff7db, before the hello existed), and
// bit0_client.bin one whose hello asked for bit 0 alone (recorded at
// commit 0f755f9, before stream handles). Neither is ever regenerated.
// Each now earns exactly one FrameError naming the floor, then EOF.
func TestCapabilityLessPeerReplay(t *testing.T) {
	refusedAtFloor(t, replaySession(t, "testdata/capless_client.bin"))
}

func TestBit0PeerReplay(t *testing.T) {
	refusedAtFloor(t, replaySession(t, "testdata/bit0_client.bin"))
}

// replaySession sends one recorded client session to a fresh server and
// returns every byte it sent back before closing.
func replaySession(t *testing.T, clientFile string) []byte {
	t.Helper()
	client, err := os.ReadFile(clientFile)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startQuietServer(t)
	p := dialRaw(t, addr)
	if _, err := p.conn.Write(client); err != nil {
		t.Fatal(err)
	}
	if err := p.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(p.br)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// refusedAtFloor requires replies to be one FrameError naming the protocol
// floor and nothing after it.
func refusedAtFloor(t *testing.T, replies []byte) {
	t.Helper()
	r := bytes.NewReader(replies)
	typ, msg, err := ReadFrame(r)
	if err != nil || typ != FrameError || !strings.Contains(string(msg), "protocol floor") {
		t.Fatalf("first reply %s %q (%v), want a FrameError naming the protocol floor", FrameName(typ), msg, err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the refusal, want EOF", r.Len())
	}
}

// TestProtocolFloor: a connection's first frame must be a hello asking for
// bits 0|1. Any other first frame — a frame that is not a hello, a hello
// missing either bit — earns one FrameError naming the floor, and the
// server closes the connection; a hello asking for more is granted exactly
// 0|1, and the connection works.
func TestProtocolFloor(t *testing.T) {
	srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()
	reg, _ := json.Marshal(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 0.5})
	for _, first := range []struct {
		name    string
		typ     uint8
		payload []byte
	}{
		{"register", FrameRegister, reg},
		{"binary query", FrameQueryBin, appendQueryBin(nil, 3, "s")},
		{"ping", FramePing, make([]byte, 16)},
		{"hello 0", FrameHello, appendHello(nil, 0)},
		{"hello bit 0", FrameHello, appendHello(nil, CapBinaryQuery)},
		{"hello bit 1", FrameHello, appendHello(nil, CapStreamHandles)},
	} {
		p := pipeTo(t, srv)
		if msg := expectOne(t, first.name, p.sendLast(first.typ, first.payload), FrameError); !strings.Contains(string(msg), "protocol floor") {
			t.Fatalf("%s: refusal %q does not name the floor", first.name, msg)
		}
		p.close()
	}
	if len(srv.srv.Infos()) != 0 {
		t.Fatal("a refused first frame registered a stream")
	}

	p := pipeTo(t, srv)
	defer p.close()
	granted := expectOne(t, "hello 0|1|1<<7", p.roundTrip(FrameHello, appendHello(nil, serverCaps|1<<7)), FrameHello)
	if caps, err := decodeHello(granted); err != nil || caps != CapBinaryQuery|CapStreamHandles {
		t.Fatalf("hello 0|1|1<<7 granted %#x (%v), want exactly 0|1", caps, err)
	}
	if h, err := decodeHandle(expectOne(t, "register", p.roundTrip(FrameRegister, reg), FrameOK)); err != nil || h != 0 {
		t.Fatalf("register: handle %d (%v), want 0", h, err)
	}
	rec, _ := (&netsim.Message{Kind: netsim.KindCorrection, Tick: 3, Value: []float64{2}}).AppendEncodeHandle(nil, 0)
	if got := p.roundTrip(FrameMessage, rec); len(got) != 0 {
		t.Fatalf("correction earned %v", got)
	}
	bound, est, err := decodeAnswerBin(expectOne(t, "query", p.roundTrip(FrameQueryBin, appendQueryBin(nil, 3, "s")), FrameAnswerBin))
	if err != nil || bound != 0 || len(est) != 1 || est[0] != 2 {
		t.Fatalf("query: %v ± %v (%v), want the correction, exactly", est, bound, err)
	}
}

// teeConn records every byte the server reads from one connection.
type teeConn struct {
	net.Conn
	mu sync.Mutex
	in bytes.Buffer
}

func (c *teeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.in.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// frames lists the types of the whole frames received so far.
func (c *teeConn) frames() []string {
	c.mu.Lock()
	r := bytes.NewReader(bytes.Clone(c.in.Bytes()))
	c.mu.Unlock()
	var out []string
	for {
		typ, _, err := ReadFrame(r)
		if err != nil {
			return out
		}
		out = append(out, FrameName(typ))
	}
}

type teeListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*teeConn
}

func (l *teeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &teeConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *teeListener) snapshot() []*teeConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*teeConn(nil), l.conns...)
}

// fakeOldServer answers every frame as a server that predates the hello
// does: FrameError naming the unknown frame type.
func fakeOldServer(t *testing.T) string { return fakeServer(t, false, 0) }

// fakeServer is fakeOldServer, except that with hello set it answers a
// hello as a server that speaks exactly caps does.
func fakeServer(t *testing.T, hello bool, caps uint32) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					typ, payload, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if ask, err := decodeHello(payload); hello && typ == FrameHello && err == nil {
						if WriteFrame(conn, FrameHello, appendHello(nil, ask&caps)) != nil {
							return
						}
						continue
					}
					msg := fmt.Sprintf("wire: unexpected frame type %d (%s)", typ, FrameName(typ))
					if WriteFrame(conn, FrameError, []byte(msg)) != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func TestHelloNegotiation(t *testing.T) {
	srv, addr := startQuietServer(t)
	if err := srv.Register(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 0.5}); err != nil {
		t.Fatal(err)
	}

	t.Run("grants bits 0 and 1 and nothing it does not speak", func(t *testing.T) {
		for _, ask := range []uint32{CapBinaryQuery | CapStreamHandles, serverCaps | 1<<2, math.MaxUint32} {
			p := dialRaw(t, addr)
			if got, want := p.hello(ask), CapBinaryQuery|CapStreamHandles; got != want {
				t.Fatalf("asked %#x, granted %#x, want %#x", ask, got, want)
			}
		}
	})

	t.Run("handles: one per stream per connection, refused when unknown or dead", func(t *testing.T) {
		for _, id := range []string{"h0", "h1", "h2"} {
			if err := srv.Register(RegisterPayload{ID: id, Spec: cvSpec(), Delta: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		p, q := dialRaw(t, addr), dialRaw(t, addr)
		p.hello(serverCaps)
		q.hello(serverCaps)
		// Handles are the connection's own: in its registration order, the
		// same handle for a registration again.
		if got := []uint32{p.registerHandle("h1"), p.registerHandle("h0"), p.registerHandle("h1")}; got[0] != 0 || got[1] != 1 || got[2] != 0 {
			t.Fatalf("handles %v, want [0 1 0]", got)
		}
		if h := q.registerHandle("h0"); h != 0 {
			t.Fatalf("another connection's first stream has handle %d, want 0", h)
		}
		// landed requires the correction at tick to have reached id.
		landed := func(id string, tick int64, v float64) {
			t.Helper()
			ans, err := srv.Query(QueryPayload{ID: id, Tick: tick})
			if err != nil || ans.Bound != 0 || ans.Estimate[0] != v {
				t.Fatalf("%s@%d: %+v, %v; want exactly %v", id, tick, ans, err, v)
			}
		}
		p.correctHandle(0, 4, 7) // h1
		p.correctHandle(1, 4, 9) // h0
		p.ping()
		landed("h1", 4, 7)
		landed("h0", 4, 9)
		refused := func(what string, frame func()) {
			t.Helper()
			frame()
			p.send(FramePing, make([]byte, 16))
			if msg := p.expect(FrameRefused); !strings.Contains(string(msg), "unknown stream") {
				t.Fatalf("%s: refusal %q", what, msg)
			}
			p.expect(FramePong)
		}
		// A handle this connection never assigned, though the stream it
		// would name on another connection exists.
		refused("out-of-range handle", func() { p.correctHandle(2, 5, 1) })
		// A batch stops at its bad record: the records before it apply.
		var b netsim.Batch
		for i, h := range []uint32{1, 7, 0} {
			if err := b.AddHandle(&netsim.Message{Kind: netsim.KindCorrection, Tick: 5, Value: []float64{float64(i)}}, h); err != nil {
				t.Fatal(err)
			}
		}
		refused("batch with an unknown handle", func() { p.send(FrameMessageBatch, b.Bytes()) })
		if a, b := mustInfo(t, srv, "h1"), mustInfo(t, srv, "h0"); a.Corrections != 1 || b.Corrections != 2 {
			t.Fatalf("after the batch: h1 %d corrections (want 1), h0 %d (want 2)", a.Corrections, b.Corrections)
		}
		// A dropped stream's handle is dead, even once the id is back.
		if err := srv.srv.Unregister("h1"); err != nil {
			t.Fatal(err)
		}
		refused("dead handle", func() { p.correctHandle(0, 6, 1) })
		if err := srv.Register(RegisterPayload{ID: "h1", Spec: cvSpec(), Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
		refused("dead handle after re-registration elsewhere", func() { p.correctHandle(0, 6, 1) })
		if h := p.registerHandle("h1"); h != 0 {
			t.Fatalf("re-registered h1 has handle %d, want its first, 0", h)
		}
		p.correctHandle(0, 6, 3)
		p.ping()
		landed("h1", 6, 3)
	})

	t.Run("late hello refused", func(t *testing.T) {
		p := dialRaw(t, addr)
		p.hello(serverCaps)
		p.send(FrameHello, appendHello(nil, serverCaps))
		if msg := p.expect(FrameError); !strings.Contains(string(msg), "first frame") {
			t.Fatalf("late hello: %q", msg)
		}
		p.ping() // the refusal answered the hello; the connection still serves
	})

	t.Run("binary query without a hello refused", func(t *testing.T) {
		p := dialRaw(t, addr)
		p.send(FrameQueryBin, appendQueryBin(nil, 3, "s"))
		if msg := p.expect(FrameError); !strings.Contains(string(msg), "protocol floor") {
			t.Fatalf("binary query without hello: %q", msg)
		}
		if typ, payload, err := ReadFrame(p.br); err != io.EOF {
			t.Fatalf("after the refusal: %s %q, %v; want EOF", FrameName(typ), payload, err)
		}
	})

	t.Run("dial against a server that predates the hello", func(t *testing.T) {
		old := fakeOldServer(t)
		_, err := Dial(old)
		if !errors.Is(err, ErrNoHello) || !strings.Contains(err.Error(), "unexpected frame type 14") {
			t.Fatalf("Dial err = %v, want ErrNoHello carrying the server's refusal", err)
		}
		_, err = DialReconnecting(old, testPolicy())
		if !errors.Is(err, ErrNoHello) {
			t.Fatalf("DialReconnecting err = %v, want ErrNoHello without retrying", err)
		}
	})

	t.Run("dial against a server that predates stream handles", func(t *testing.T) {
		bit0 := fakeServer(t, true, CapBinaryQuery)
		for _, dial := range []func() (*Client, error){
			func() (*Client, error) { return Dial(bit0) },
			func() (*Client, error) { return DialReconnecting(bit0, testPolicy()) },
		} {
			if _, err := dial(); !errors.Is(err, ErrNoHello) || !strings.Contains(err.Error(), "missing bit 1 (CapStreamHandles)") {
				t.Fatalf("dial err = %v, want ErrNoHello naming bit 1", err)
			}
		}
	})

	t.Run("redial says hello before replaying registrations", func(t *testing.T) {
		srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
		defer srv.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &teeListener{Listener: l}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(tl) }()
		defer func() { l.Close(); <-done }()

		c, err := DialReconnecting(l.Addr().String(), testPolicy())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		quiet(c)
		for _, id := range []string{"a", "b"} {
			if err := c.Register(id, cvSpec(), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		c.EnableCoalescing(CoalesceConfig{MaxCorrections: 8})
		first := tl.snapshot()
		if len(first) != 1 {
			t.Fatalf("%d connections before the sever", len(first))
		}
		// Corrections encoded into the write ring before the sever name
		// their streams by the old connection's handles; they ship on the
		// new one, so the replay must have reproduced those handles.
		for _, m := range []*netsim.Message{
			{Kind: netsim.KindCorrection, StreamID: "a", Tick: 4, Value: []float64{1}},
			{Kind: netsim.KindCorrection, StreamID: "b", Tick: 4, Value: []float64{2}},
		} {
			if err := c.SendCorrection(m); err != nil {
				t.Fatal(err)
			}
		}
		first[0].Close()
		for deadline := time.Now().Add(5 * time.Second); c.reconnects == 0; {
			if _, err := c.PollFeedback(); err != nil {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("polling never noticed the severed connection")
			}
		}
		if n := c.batch.Count(); n != 2 {
			t.Fatalf("%d corrections pending across the redial, want 2", n)
		}
		for id, want := range map[string]float64{"a": 1, "b": 2} {
			ans, err := c.Query(id, 4)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Bound != 0 || ans.Estimate[0] != want {
				t.Fatalf("%s after the redial: %+v, want exactly %v", id, ans, want)
			}
		}
		if c.reconnects != 1 {
			t.Fatalf("reconnects = %d, want 1", c.reconnects)
		}
		conns := tl.snapshot()
		for i, want := range []string{"hello register register", "hello register register message-batch query-bin query-bin"} {
			if got := strings.Join(conns[i].frames(), " "); got != want {
				t.Fatalf("connection %d carried %q, want %q", i, got, want)
			}
		}
		if got := c.handles; len(got) != 2 || got["a"] != 0 || got["b"] != 1 {
			t.Fatalf("client handles %v, want a:0 b:1", got)
		}
	})

	t.Run("redial refuses a replay that reassigns a handle", func(t *testing.T) {
		_, addr := startQuietServer(t)
		c, err := DialReconnecting(addr, testPolicy())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		quiet(c)
		for _, id := range []string{"a", "b"} {
			if err := c.Register(id, cvSpec(), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		c.regs[0], c.regs[1] = c.regs[1], c.regs[0] // a replay out of first-registration order
		c.conn.Close()
		err = c.SendCorrection(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 1, Value: []float64{1}})
		if err == nil || !strings.Contains(err.Error(), `redial assigned stream "b" handle 0, want 1`) {
			t.Fatalf("send across a handle-shuffling redial: %v", err)
		}
	})
}

// TestQueryDispatchAllocs extends the zero-alloc dispatch guard to
// queries: a warm binary query allocates nothing — the id's bytes find the
// record, the estimate lands in the connection's buffer, and a query ahead
// of the record predicts from its state vector with no allocation either —
// and the record stands where its last correction left it after every one
// of them.
func TestQueryDispatchAllocs(t *testing.T) {
	const id = "sensor-0001" // a one-byte id's string would come from the runtime's static table
	srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()
	if err := srv.Register(RegisterPayload{ID: id, Spec: cvSpec(), Delta: 1}); err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < 8; tick++ {
		m := netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{float64(tick)}}
		if err := srv.Apply(&m); err != nil {
			t.Fatal(err)
		}
	}
	before := mustInfo(t, srv, id)
	cw, q := handleConn(t, srv), appendQueryBin(nil, 100, id)
	query := func() {
		if err := srv.dispatch(cw, FrameQueryBin, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	for range 8 {
		query()
	}
	if allocs := testing.AllocsPerRun(500, query); allocs != 0 {
		t.Errorf("binary query dispatch allocates %.2f per frame, want exactly 0", allocs)
	}
	if after := mustInfo(t, srv, id); after.Tick != before.Tick || after.Suppressed != before.Suppressed {
		t.Errorf("508 queries at tick 100 moved the record from tick %d to %d (suppressed %d → %d)",
			before.Tick, after.Tick, before.Suppressed, after.Suppressed)
	}
}

// TestRegisterDispatchAllocs: a register frame of an interned spec clones
// the spec's prototype, so over 10,000 new streams one costs at most 14
// allocations. All but a few — the record, the replica, the handle and the
// amortized growth of the maps and slices they land in — are
// encoding/json's decode of the frame.
func TestRegisterDispatchAllocs(t *testing.T) {
	const streams = 10_000
	srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()
	frames := make([][]byte, streams+1)
	for i := range frames {
		var err error
		if frames[i], err = json.Marshal(RegisterPayload{ID: fmt.Sprintf("sensor-%05d", i), Spec: cvSpec(), Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	cw := handleConn(t, srv)
	if err := srv.dispatch(cw, FrameRegister, frames[streams], nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range frames[:streams] {
		if err := srv.dispatch(cw, FrameRegister, f, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.Mallocs-before.Mallocs) / streams
	t.Logf("%.2f allocations per register frame", perFrame)
	if perFrame > 14 {
		t.Errorf("a register frame of an interned spec costs %.2f allocations, want ≤ 14", perFrame)
	}
}

// One NaN or ±Inf correction must not poison a replica: it is refused with
// a FrameRefused push, before the replica steps, the dedupe guard moves or
// the log sees it, so every later answer is bit-identical to a server that
// never saw it — over the socket and in process.
func TestNonFiniteCorrectionRefused(t *testing.T) {
	poisoned, paddr := startQuietServer(t)
	control, caddr := startQuietServer(t)
	pp, cp := dialRaw(t, paddr), dialRaw(t, caddr)
	for _, p := range []*rawPeer{pp, cp} {
		p.hello(serverCaps)
		p.registerHandle("n")
		p.correctHandle(0, 0, 1)
	}
	for _, bad := range []struct {
		tick int64
		v    float64
	}{{1, math.NaN()}, {2, math.Inf(1)}} {
		pp.correctHandle(0, bad.tick, bad.v)
		pp.send(FramePing, make([]byte, 16))
		if msg := pp.expect(FrameRefused); !strings.Contains(string(msg), "non-finite") {
			t.Fatalf("tick %d %v: refusal %q", bad.tick, bad.v, msg)
		}
		pp.expect(FramePong)
	}
	for _, p := range []*rawPeer{pp, cp} {
		p.correctHandle(0, 2, 2)
		p.correctHandle(0, 3, 2.5)
		p.ping()
	}

	pc, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cc, err := Dial(caddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for tick := int64(3); tick < 12; tick++ {
		got, err := pc.Query("n", tick)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cc.Query("n", tick)
		if err != nil {
			t.Fatal(err)
		}
		if !same(append(got.Estimate, got.Bound), append(want.Estimate, want.Bound)) {
			t.Fatalf("tick %d answer %v ± %v, control %v ± %v", tick, got.Estimate, got.Bound, want.Estimate, want.Bound)
		}
		gotIn, err := poisoned.Query(QueryPayload{ID: "n", Tick: tick})
		if err != nil {
			t.Fatal(err)
		}
		wantIn, err := control.Query(QueryPayload{ID: "n", Tick: tick})
		if err != nil {
			t.Fatal(err)
		}
		if !same(gotIn.Estimate, wantIn.Estimate) || gotIn.Bound != wantIn.Bound {
			t.Fatalf("tick %d in-process answer %v, control %v", tick, gotIn.Estimate, wantIn.Estimate)
		}
	}
	if got, want := mustInfo(t, poisoned, "n"), mustInfo(t, control, "n"); got.Corrections != want.Corrections || got.Duplicates != 0 {
		t.Fatalf("stream record %+v, control %+v", got, want)
	}
}

// A refused correction is a push, not a reply. Before stream handles the
// server answered a refused fire-and-forget frame with FrameError, which
// the client took as the reply to the request it sent next — and from
// then on every answer belonged to the previous query. On a handle
// connection the refusal arrives as FrameRefused, every reply answers its
// own request, and the refusal is reported once, by the next correction
// send (or PollFeedback, FlushCorrections, SendTrace).
func TestRefusedCorrectionDoesNotShiftReplies(t *testing.T) {
	srv, addr := startQuietServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(id string, tick int64, v float64) error {
		return c.SendCorrection(&netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{v}})
	}
	for _, id := range []string{"a", "b"} {
		if err := c.Register(id, cvSpec(), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for tick := int64(0); tick < 3; tick++ {
		if err := errors.Join(send("a", tick, 0), send("b", tick, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := send("a", 3, math.NaN()); err != nil {
		t.Fatalf("the refused send itself: %v", err)
	}
	for _, id := range []string{"a", "b", "a"} {
		got, err := c.Query(id, 5)
		if err != nil {
			t.Fatalf("query %s after a refused correction: %v", id, err)
		}
		want, err := srv.Query(QueryPayload{ID: id, Tick: 5})
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != id || got.Bound != want.Bound || math.Float64bits(got.Estimate[0]) != math.Float64bits(want.Estimate[0]) {
			t.Fatalf("query %s answered %+v, the server holds %+v", id, got, want)
		}
	}
	if err := send("b", 6, 101); !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("next send reported %v, want the refusal", err)
	}
	if err := send("b", 7, 102); err != nil {
		t.Fatalf("refusal reported twice: %v", err)
	}
	if _, err := c.Query("b", 7); err != nil { // a barrier: the sends above have been handled
		t.Fatal(err)
	}
	if info := mustInfo(t, srv, "b"); info.Corrections != 5 {
		t.Fatalf("b took %d corrections, want 5: the send that reported the refusal ships too", info.Corrections)
	}
	// Found by polling instead: a correction too far ahead.
	if err := send("a", 7+server.MaxAdvancePerMessage, 1); err != nil {
		t.Fatal(err)
	}
	var polled error
	for deadline := time.Now().Add(5 * time.Second); polled == nil && time.Now().Before(deadline); {
		_, polled = c.PollFeedback()
	}
	if !errors.Is(polled, ErrServer) || !strings.Contains(polled.Error(), "would advance") {
		t.Fatalf("PollFeedback reported %v, want the refusal", polled)
	}
	if err := send("b", 8, 1); err != nil {
		t.Fatalf("a refusal PollFeedback reported came back: %v", err)
	}
	if err := send("unregistered", 9, 1); err == nil || !strings.Contains(err.Error(), "not registered on this connection") {
		t.Fatalf("a correction for a stream this client never registered: %v", err)
	}
}

// TestBatchDispatchZeroAlloc is the many-stream twin of
// TestMessageDispatchZeroAlloc: a warm 64-record FrameMessageBatch over 64
// distinct streams goes through dispatch — decode, resolve by handle,
// lock, lazy advance, apply — without an allocation.
func TestBatchDispatchZeroAlloc(t *testing.T) {
	const streams = 64
	srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()
	cw := handleConn(t, srv)
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("sensor-%04d", i)
		if err := registerOn(t, srv, cw, RegisterPayload{ID: ids[i], Spec: cvSpec(), Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
		if h := cw.handles[ids[i]]; h != uint32(i) {
			t.Fatalf("%s has handle %d, want %d", ids[i], h, i)
		}
	}
	var msg netsim.Message
	m := netsim.Message{Kind: netsim.KindCorrection, Value: []float64{0}}
	var frame []byte
	tick := int64(0)
	batch := func() {
		frame = frame[:0]
		for i := range ids {
			m.Tick, m.Value[0] = tick, float64(i)
			frame, _ = m.AppendEncodeHandle(frame, uint32(i))
		}
		tick++
		if err := srv.dispatch(cw, FrameMessageBatch, frame, &msg); err != nil {
			t.Fatal(err)
		}
	}
	for range 8 {
		batch()
	}
	if allocs := testing.AllocsPerRun(200, batch); allocs != 0 {
		t.Errorf("64-record batch dispatch allocates %.2f per frame, want 0", allocs)
	}
	if info := mustInfo(t, srv, ids[63]); info.Corrections != 209 || info.Duplicates != 0 {
		t.Fatalf("%s: %d corrections, %d duplicates; want 209, 0", ids[63], info.Corrections, info.Duplicates)
	}
}

// TestOverLimitRegistrationsRefused: a spec past predictor's size limits
// is refused before any replica is built. 1,000 over-limit registrations
// on one connection each earn a FrameError, no stream record exists
// afterwards, and the live heap grows by less than 1 MB.
func TestOverLimitRegistrationsRefused(t *testing.T) {
	srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	defer srv.Close()
	p := pipeTo(t, srv)
	defer p.close()
	expectOne(t, "hello", p.roundTrip(FrameHello, appendHello(nil, serverCaps)), FrameHello)
	rw := predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 1}
	specs := []predictor.Spec{
		{Kind: predictor.KindStatic, Dim: 1024},
		{Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalkND, Q: 1, R: 1, Dim: 80}},
		{Kind: predictor.KindKalman, Model: rw, Adaptive: true, AdaptiveWindow: 1 << 16},
		{Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{rw, rw, rw, rw, rw, rw, rw, rw, rw}},
	}
	payloads := make([][]byte, 1000)
	for i := range payloads {
		var err error
		if payloads[i], err = json.Marshal(RegisterPayload{ID: fmt.Sprintf("big-%04d", i), Spec: specs[i%len(specs)], Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, payload := range payloads {
		if msg := expectOne(t, "over-limit register", p.roundTrip(FrameRegister, payload), FrameError); i < len(specs) &&
			!strings.Contains(string(msg), "size limit") {
			t.Fatalf("spec %+v refused with %q, which does not name the size limit", specs[i], msg)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(srv.srv.Infos()); n != 0 {
		t.Fatalf("%d over-limit registrations created a stream record", n)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 1<<20 {
		t.Fatalf("live heap grew %d bytes over 1,000 refused registrations, want under 1 MB", grown)
	}
}
