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
	"strings"
	"sync"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
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

func (p *rawPeer) register(id string, delta float64) {
	p.t.Helper()
	buf, err := json.Marshal(RegisterPayload{ID: id, Spec: cvSpec(), Delta: delta})
	if err != nil {
		p.t.Fatal(err)
	}
	p.send(FrameRegister, buf)
	p.expect(FrameOK)
}

func (p *rawPeer) correct(id string, tick int64, v float64) {
	p.t.Helper()
	m := netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{v}}
	buf, err := m.Encode()
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

// A peer that never sends a hello gets the protocol byte for byte as it
// was before the hello existed. testdata/capless_client.bin is such a
// peer's whole session — a register, one correction, one 64-record batch,
// a JSON query, a JSON query for an unknown stream, a ping — and
// capless_server.bin every byte a server of that protocol (commit
// 3dff7db) sent back. Both were recorded once; never regenerate them.
func TestCapabilityLessPeerReplay(t *testing.T) {
	client, err := os.ReadFile("testdata/capless_client.bin")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/capless_server.bin")
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
	if !bytes.Equal(got, want) {
		t.Fatalf("replies differ from the recorded session:\n got %q\nwant %q", got, want)
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
func fakeOldServer(t *testing.T) string {
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
					typ, _, err := ReadFrame(conn)
					if err != nil {
						return
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

	t.Run("grants bit 0 and nothing it does not speak", func(t *testing.T) {
		for _, ask := range []uint32{0, CapBinaryQuery, math.MaxUint32} {
			p := dialRaw(t, addr)
			p.send(FrameHello, appendHello(nil, ask))
			got, err := decodeHello(p.expect(FrameHello))
			if err != nil {
				t.Fatal(err)
			}
			if want := ask & CapBinaryQuery; got != want {
				t.Fatalf("asked %#x, granted %#x, want %#x", ask, got, want)
			}
		}
	})

	t.Run("late hello refused", func(t *testing.T) {
		p := dialRaw(t, addr)
		p.ping()
		p.send(FrameHello, appendHello(nil, CapBinaryQuery))
		if msg := p.expect(FrameError); !strings.Contains(string(msg), "first frame") {
			t.Fatalf("late hello: %q", msg)
		}
		p.send(FrameQueryBin, appendQueryBin(nil, 3, "s"))
		p.expect(FrameError) // the refused hello granted nothing
		again := dialRaw(t, addr)
		again.send(FrameHello, appendHello(nil, CapBinaryQuery))
		again.expect(FrameHello)
		again.send(FrameHello, appendHello(nil, CapBinaryQuery))
		again.expect(FrameError)
	})

	t.Run("binary query without a hello refused", func(t *testing.T) {
		p := dialRaw(t, addr)
		p.send(FrameQueryBin, appendQueryBin(nil, 3, "s"))
		if msg := p.expect(FrameError); !strings.Contains(string(msg), "did not negotiate") {
			t.Fatalf("binary query without hello: %q", msg)
		}
		// The connection still speaks JSON queries.
		q, _ := json.Marshal(QueryPayload{ID: "s", Tick: 3})
		p.send(FrameQuery, q)
		p.expect(FrameAnswer)
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
		first := tl.snapshot()
		if len(first) != 1 {
			t.Fatalf("%d connections before the sever", len(first))
		}
		first[0].Close()
		if _, err := c.Query("a", 4); err != nil {
			t.Fatal(err)
		}
		if c.Reconnects() != 1 {
			t.Fatalf("reconnects = %d, want 1", c.Reconnects())
		}
		conns := tl.snapshot()
		for i, want := range []string{"hello register register", "hello register register query-bin"} {
			if got := strings.Join(conns[i].frames(), " "); got != want {
				t.Fatalf("connection %d carried %q, want %q", i, got, want)
			}
		}
	})
}

// TestQueryDispatchAllocs extends the zero-alloc dispatch guard to
// queries: a warm binary query allocates the stream id's string and the
// estimate's copy, and nothing else. The JSON arm is measured beside it.
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
	measure := func(cw *connWriter, typ uint8, payload []byte) float64 {
		for i := 0; i < 8; i++ {
			if err := srv.dispatch(cw, typ, payload, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if err := srv.dispatch(cw, typ, payload, nil); err != nil {
				t.Fatal(err)
			}
		})
	}

	bin := &connWriter{conn: discardConn{}, s: srv}
	if err := srv.dispatch(bin, FrameHello, appendHello(nil, CapBinaryQuery), nil); err != nil {
		t.Fatal(err)
	}
	binAllocs := measure(bin, FrameQueryBin, appendQueryBin(nil, 100, id))
	if binAllocs != 2 {
		t.Errorf("binary query dispatch allocates %.2f per frame, want exactly 2 (id string, estimate copy)", binAllocs)
	}
	q, err := json.Marshal(QueryPayload{ID: id, Tick: 100})
	if err != nil {
		t.Fatal(err)
	}
	jsonAllocs := measure(&connWriter{conn: discardConn{}, s: srv}, FrameQuery, q)
	if jsonAllocs < 9 {
		t.Errorf("JSON query dispatch allocates %.2f per frame; the contrast expects ≥ 9", jsonAllocs)
	}
	t.Logf("query dispatch allocations: binary %.0f, JSON %.0f", binAllocs, jsonAllocs)
}

// One NaN or ±Inf correction must not poison a replica: it is refused with
// a FrameError, before the replica steps, the dedupe guard moves or the
// log sees it, so every later answer is bit-identical to a server that
// never saw it — on the JSON arm, the binary arm and in process.
func TestNonFiniteCorrectionRefused(t *testing.T) {
	poisoned, paddr := startQuietServer(t)
	control, caddr := startQuietServer(t)
	pp, cp := dialRaw(t, paddr), dialRaw(t, caddr)
	for _, p := range []*rawPeer{pp, cp} {
		p.register("n", 0.5)
		p.correct("n", 0, 1)
	}
	for _, bad := range []struct {
		tick int64
		v    float64
	}{{1, math.NaN()}, {2, math.Inf(1)}} {
		pp.correct("n", bad.tick, bad.v)
		pp.send(FramePing, make([]byte, 16))
		if msg := pp.expect(FrameError); !strings.Contains(string(msg), "non-finite") {
			t.Fatalf("tick %d %v: error %q", bad.tick, bad.v, msg)
		}
		pp.expect(FramePong)
	}
	for _, p := range []*rawPeer{pp, cp} {
		p.correct("n", 2, 2)
		p.correct("n", 3, 2.5)
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
		q, _ := json.Marshal(QueryPayload{ID: "n", Tick: tick})
		pp.send(FrameQuery, q)
		cp.send(FrameQuery, q)
		if got, want := pp.expect(FrameAnswer), cp.expect(FrameAnswer); !bytes.Equal(got, want) {
			t.Fatalf("tick %d JSON answer %s, control %s", tick, got, want)
		}
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
