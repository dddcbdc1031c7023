package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"math/rand"
	"net"
	"time"

	"kalmanstream/internal/freshness"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// ErrServer wraps errors the server reported via FrameError or pushed via
// FrameRefused. They are protocol-level rejections (unknown stream,
// conflicting registration, a non-finite correction), not transport
// failures, so the reconnect machinery never retries them.
var ErrServer = errors.New("wire: server error")

// ReconnectPolicy shapes the client's automatic redial behaviour.
// The zero value disables reconnection (a transport error is returned to
// the caller, matching the original Dial semantics).
type ReconnectPolicy struct {
	// MaxAttempts bounds consecutive failed dials before the client
	// gives up. Zero means the DefaultDialAttempts; negative retries
	// forever.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 50ms). Each failed
	// dial doubles it, capped at MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the jitter RNG; zero means 1, keeping tests
	// deterministic.
	Seed int64
}

// DefaultDialAttempts is the redial budget when MaxAttempts is zero.
const DefaultDialAttempts = 8

// dialJitter randomizes each backoff delay by ±this fraction so a fleet
// of sources does not redial in lockstep after a server restart.
const dialJitter = 0.2

func (p ReconnectPolicy) normalized() ReconnectPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultDialAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Client is one TCP connection to a wire server. A source process uses
// Register + the Source wrapper; a query process uses Query. Client is
// not safe for concurrent use; open one connection per goroutine.
//
// A client built with DialReconnecting transparently redials on
// transport errors: it replays its registrations (the server adopts the
// surviving replica on an identical re-register), invokes OnReconnect,
// and retries the failed operation. Server-reported errors (ErrServer)
// are never retried.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// rbuf is the body buffer every reply is read into (a reply is valid
	// until the next read), qbuf the one a binary query is encoded into.
	rbuf, qbuf []byte

	addr      string
	policy    ReconnectPolicy
	reconnect bool
	closed    bool
	regs      []RegisterPayload // replayed after a redial, in first-registration order
	rng       *rand.Rand
	// handles maps each stream registered on this client to the handle the
	// server assigned it, which its corrections carry instead of the id; a
	// redial's replay reproduces every one. refused is the first refusal
	// the server pushed (FrameRefused) that no call has reported yet.
	handles map[string]uint32
	refused error

	// OnResyncRequest is invoked when the server pushes a
	// FrameResyncRequest for a stream (its staleness watchdog asking the
	// source to resynchronize). NetworkedSource installs a hook that
	// forces a full-snapshot resync on the stream's next observation.
	OnResyncRequest func(streamID string)
	// OnReconnect is invoked after a successful redial, once
	// registrations have been replayed. NetworkedSource installs a hook
	// that forces a resync, since corrections buffered in the dead
	// connection may never have arrived.
	OnReconnect func()
	// Logger receives reconnect diagnostics; nil means slog.Default().
	Logger *slog.Logger

	reconnects    int64
	telReconnects *telemetry.Counter
	telRedials    *telemetry.Counter
	telResyncReqs *telemetry.Counter

	// The write ring every correction goes through, shaped by batchCfg
	// (EnableCoalescing). Its zero value — a client that never called
	// EnableCoalescing — is a ring of one: each correction flushes as it is
	// sent, as one FrameMessage.
	batch      netsim.Batch
	batchCfg   CoalesceConfig
	lastFlush  time.Time
	batchStart time.Time // when the pending batch received its first correction

	telFlushes    *telemetry.Counter
	telCoalesced  *telemetry.Counter
	telFlushDelay *telemetry.Histogram
	telRingOcc    *telemetry.Gauge

	// Skew-probe state: pingClock reads the same monotonic-anchored wall
	// clock the stamping path uses, and lastRTT is the round trip the
	// previous Ping measured, reported to the server on the next one so
	// its offset samples are transit-corrected.
	pingClock freshness.Clock
	lastRTT   time.Duration
}

// CoalesceConfig shapes the client's correction write ring. Corrections
// accumulate in a pending batch and ship as one FrameMessageBatch when
// any bound trips; a batch of one degenerates to the legacy FrameMessage,
// so a sparse stream pays no batching overhead.
type CoalesceConfig struct {
	// MaxCorrections flushes when this many corrections are pending
	// (default 16).
	MaxCorrections int
	// MaxBytes flushes before the pending encoding would exceed this
	// (default 4096).
	MaxBytes int
	// FlushAfter is a wall-clock deadline: a correction arriving this
	// long after the previous flush ships the pending batch immediately
	// (0 = no deadline). The check rides on the send path — an idle
	// connection holds its batch until the next correction, query, or
	// explicit FlushCorrections.
	FlushAfter time.Duration
}

func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.MaxCorrections <= 0 {
		c.MaxCorrections = 16
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 4096
	}
	return c
}

// EnableCoalescing arms the correction write ring: SendCorrection
// buffers into a pending batch that flushes on the configured size and
// deadline bounds — and always before a query,
// trace batch, metrics fetch, or Close, so no protocol exchange can
// observe the server behind the corrections sent before it.
func (c *Client) EnableCoalescing(cfg CoalesceConfig) {
	c.batchCfg = cfg.withDefaults()
	c.lastFlush = time.Now()
}

// Dial connects to a wire server with no reconnect policy. It fails with
// ErrNoHello against a server that predates the protocol hello or any of
// its capabilities.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr}
	c.initTelemetry()
	if err := c.attach(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// DialReconnecting connects to a wire server and arms automatic
// reconnection with capped exponential backoff and jitter. The initial
// dial itself goes through the same retry loop, so a source can start
// before its server.
func DialReconnecting(addr string, policy ReconnectPolicy) (*Client, error) {
	c := &Client{
		addr:      addr,
		policy:    policy.normalized(),
		reconnect: true,
	}
	c.rng = rand.New(rand.NewSource(c.policy.Seed))
	c.initTelemetry()
	if err := c.dialWithBackoff(); err != nil {
		return nil, err
	}
	return c, nil
}

// attach makes conn the client's connection and opens it with the hello,
// before any other frame — a redial's registration replay included.
func (c *Client) attach(conn net.Conn) error {
	c.conn, c.br, c.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := WriteFrame(c.bw, FrameHello, appendHello(nil, serverCaps)); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	reply, err := c.expect(FrameHello)
	if errors.Is(err, ErrServer) {
		return fmt.Errorf("%w: %w", ErrNoHello, err)
	}
	if err != nil {
		return err
	}
	caps, err := decodeHello(reply)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrServer, err)
	}
	// Every bit asked for is needed: they are the protocol floor, and
	// nothing below it is spoken.
	if missing := serverCaps &^ caps; missing != 0 {
		bit := bits.TrailingZeros32(missing)
		return fmt.Errorf("%w: %w: hello granted %#x, missing bit %d (%s)", ErrNoHello, ErrServer, caps, bit, capNames[bit])
	}
	return nil
}

func (c *Client) initTelemetry() {
	c.telReconnects = telemetry.Default.Counter("wire_client_reconnects_total")
	c.telRedials = telemetry.Default.Counter("wire_client_redials_total")
	c.telResyncReqs = telemetry.Default.Counter("wire_client_resync_requests_total")
	c.telFlushes = telemetry.Default.Counter("wire_client_batch_flushes_total")
	c.telCoalesced = telemetry.Default.Counter("wire_client_corrections_coalesced_total")
	telemetry.Default.Help("wire_coalesce_flush_delay_seconds",
		"wall-clock delay between a batch's first correction and its flush")
	c.telFlushDelay = telemetry.Default.Histogram("wire_coalesce_flush_delay_seconds", telemetry.LatencyBuckets)
	telemetry.Default.Help("wire_client_write_ring_occupancy",
		"corrections pending in the coalescing write ring")
	c.telRingOcc = telemetry.Default.Gauge("wire_client_write_ring_occupancy")
}

// Close flushes any pending coalesced corrections, closes the
// connection, and disables further reconnection.
func (c *Client) Close() error {
	var flushErr error
	if c.conn != nil {
		flushErr = c.FlushCorrections()
	}
	c.closed = true
	if c.conn == nil {
		return flushErr
	}
	if err := c.conn.Close(); err != nil {
		return err
	}
	return flushErr
}

func (c *Client) logw(msg string, args ...any) {
	l := c.Logger
	if l == nil {
		l = slog.Default()
	}
	l.Warn(msg, args...)
}

// dialWithBackoff dials and attaches until a connection's hello succeeds
// or the attempt budget runs out: delay doubles from BaseDelay to
// MaxDelay, randomized by ±dialJitter. A hello the server refuses is
// final.
func (c *Client) dialWithBackoff() error {
	delay := c.policy.BaseDelay
	var lastErr error
	for attempt := 0; c.policy.MaxAttempts < 0 || attempt < c.policy.MaxAttempts; attempt++ {
		if c.closed {
			return net.ErrClosed
		}
		c.telRedials.Inc()
		conn, err := net.Dial("tcp", c.addr)
		if err == nil {
			if err = c.attach(conn); err == nil {
				return nil
			}
			conn.Close()
			if errors.Is(err, ErrServer) {
				return err
			}
		}
		lastErr = err
		sleep := time.Duration(float64(delay) * (1 + dialJitter*(2*c.rng.Float64()-1)))
		c.logw("wire: dial failed, backing off", "addr", c.addr, "attempt", attempt+1, "sleep", sleep.Round(time.Millisecond), "err", err)
		time.Sleep(sleep)
		if delay *= 2; delay > c.policy.MaxDelay {
			delay = c.policy.MaxDelay
		}
	}
	return fmt.Errorf("wire: dial %s: gave up after %d attempts: %w", c.addr, c.policy.MaxAttempts, lastErr)
}

// redial replaces the dead connection, replays registrations so the
// server re-adopts the surviving replicas, and fires OnReconnect. The
// replay runs in first-registration order, so the new connection assigns
// every stream the handle it had — corrections already encoded in the
// write ring stay valid — and a reply naming another handle is fatal, as
// is a replay the server rejects (spec conflict); a transport failure
// mid-replay restarts the dial loop.
func (c *Client) redial() error {
	if c.closed {
		return net.ErrClosed
	}
	if c.conn != nil {
		c.conn.Close()
	}
redial:
	for {
		if err := c.dialWithBackoff(); err != nil {
			return err
		}
		for _, p := range c.regs {
			h, err := c.registerOnce(p)
			if err != nil {
				if errors.Is(err, ErrServer) {
					return err
				}
				c.conn.Close()
				continue redial
			}
			if want := c.handles[p.ID]; h != want {
				return fmt.Errorf("%w: redial assigned stream %q handle %d, want %d", ErrServer, p.ID, h, want)
			}
		}
		break
	}
	c.reconnects++
	c.telReconnects.Inc()
	c.logw("wire: reconnected", "addr", c.addr, "reconnects", c.reconnects, "streams", len(c.regs))
	if c.OnReconnect != nil {
		c.OnReconnect()
	}
	return nil
}

// retryable reports whether an operation error should trigger a redial:
// the client must be armed for reconnection and the error must be a
// transport failure, not a server verdict.
func (c *Client) retryable(err error) bool {
	return c.reconnect && !c.closed && err != nil && !errors.Is(err, ErrServer)
}

// maxOpRetries bounds how many redial-and-retry cycles one operation
// attempts; each cycle already contains a full backoff dial loop.
const maxOpRetries = 3

// withRetry runs op, redialing and retrying on transport errors.
func (c *Client) withRetry(op func() error) error {
	err := op()
	for cycle := 0; c.retryable(err) && cycle < maxOpRetries; cycle++ {
		if rerr := c.redial(); rerr != nil {
			return fmt.Errorf("%w (reconnect: %v)", err, rerr)
		}
		err = op()
	}
	return err
}

// handleResyncRequest reacts to a server watchdog push.
func (c *Client) handleResyncRequest(payload []byte) {
	c.telResyncReqs.Inc()
	if c.OnResyncRequest != nil {
		c.OnResyncRequest(string(payload))
	}
}

// noteRefused keeps a refusal the server pushed until a call reports it
// (see surface); a later one while the first is pending is dropped.
func (c *Client) noteRefused(payload []byte) {
	if c.refused == nil {
		c.refused = fmt.Errorf("%w: %s", ErrServer, payload)
	}
}

// surface returns err, or, when the operation itself succeeded, the
// pending refusal — once. SendCorrection, FlushCorrections, SendTrace
// and PollFeedback report refusals; no reply ever does.
func (c *Client) surface(err error) error {
	if err != nil {
		return err
	}
	err, c.refused = c.refused, nil
	return err
}

// expect reads one frame and decodes the common OK/Error/Answer shapes.
// The server's pushes may arrive at any read point: FrameResyncRequest is
// dispatched and FrameRefused noted, and both are skipped. The payload is
// valid until the client's next read.
func (c *Client) expect(want uint8) ([]byte, error) {
	for {
		typ, payload, err := readFrameInto(c.br, &c.rbuf)
		if err != nil {
			return nil, err
		}
		switch typ {
		case want:
			return payload, nil
		case FrameResyncRequest:
			c.handleResyncRequest(payload)
		case FrameRefused:
			c.noteRefused(payload)
		case FrameError:
			return nil, fmt.Errorf("%w: %s", ErrServer, payload)
		default:
			return nil, fmt.Errorf("wire: unexpected frame type %d (want %d)", typ, want)
		}
	}
}

// PollFeedback drains any pending server pushes without blocking the
// send path: a source's steady state is all writes, so watchdog resync
// requests would otherwise sit in the socket until the next query. It
// peeks for a buffered frame header under a millisecond deadline; a
// timeout means no feedback. Returns how many pushes were handled, and
// the pending refusal of a correction, batch or trace frame, if any.
//
// Polling is also where a reconnecting client usually discovers a dead
// connection — writes into a broken socket succeed locally, reads fail
// fast — so transport errors here redial instead of surfacing.
func (c *Client) PollFeedback() (int, error) {
	n := 0
	for {
		if c.br.Buffered() < 5 {
			if err := c.conn.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
				return n, c.pollRecover(err)
			}
			_, err := c.br.Peek(5)
			c.conn.SetReadDeadline(time.Time{})
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					// Peek leaves partial bytes buffered, so frame sync
					// survives a timeout.
					return n, c.surface(nil)
				}
				return n, c.pollRecover(err)
			}
		}
		// A header is buffered; the payload may still be in flight, so
		// give the read a grace deadline instead of blocking forever.
		if err := c.conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return n, c.pollRecover(err)
		}
		typ, payload, err := readFrameInto(c.br, &c.rbuf)
		c.conn.SetReadDeadline(time.Time{})
		if err != nil {
			return n, c.pollRecover(err)
		}
		switch typ {
		case FrameResyncRequest:
			c.handleResyncRequest(payload)
			n++
		case FrameRefused:
			c.noteRefused(payload)
			n++
		case FrameError:
			return n, fmt.Errorf("%w: %s", ErrServer, payload)
		default:
			return n, fmt.Errorf("wire: unsolicited frame %s", FrameName(typ))
		}
	}
}

// pollRecover turns a transport error seen while polling into a redial
// (the registration replay and OnReconnect hook restore stream state);
// non-retryable errors pass through.
func (c *Client) pollRecover(err error) error {
	if !c.retryable(err) {
		return err
	}
	if rerr := c.redial(); rerr != nil {
		return fmt.Errorf("%w (reconnect: %v)", err, rerr)
	}
	return nil
}

// registerOnce performs one register round-trip on the current
// connection, without retry (redial replays use it directly), and returns
// the handle the server assigned the stream.
func (c *Client) registerOnce(p RegisterPayload) (uint32, error) {
	buf, err := json.Marshal(p)
	if err != nil {
		return 0, err
	}
	if err := WriteFrame(c.bw, FrameRegister, buf); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	reply, err := c.expect(FrameOK)
	if err != nil {
		return 0, err
	}
	return decodeHandle(reply)
}

// Register announces a stream; the client's corrections can name it from
// then on. A reconnecting client remembers the registration and replays
// it after every redial; the server treats an identical re-register as a
// resume and keeps the replica.
func (c *Client) Register(id string, spec predictor.Spec, delta float64) error {
	p := RegisterPayload{ID: id, Spec: spec, Delta: delta}
	var h uint32
	if err := c.withRetry(func() (err error) { h, err = c.registerOnce(p); return err }); err != nil {
		return err
	}
	if old, ok := c.handles[id]; ok && old != h {
		return fmt.Errorf("%w: stream %q re-registered as handle %d, was %d", ErrServer, id, h, old)
	}
	if c.handles == nil {
		c.handles = make(map[string]uint32)
	}
	c.handles[id] = h
	if c.reconnect {
		replaced := false
		for i := range c.regs {
			if c.regs[i].ID == id {
				c.regs[i] = p
				replaced = true
				break
			}
		}
		if !replaced {
			c.regs = append(c.regs, p)
		}
	}
	return nil
}

// SendCorrection ships a correction message; fire-and-forget. Its stream
// must have been registered on this client: the record names it by the
// handle the server assigned. The correction lands in the write ring and
// ships with the flush it triggers — at once, unless coalescing is
// enabled — and is fully encoded before SendCorrection returns, so the
// caller may recycle m immediately; the steady-state send path performs
// no allocations. On a reconnecting client a flush failure redials and
// re-sends; the server's monotonic-tick guard discards the copy if the
// original did arrive. A refusal the server pushed since the last report
// is returned here (see FrameRefused), after the send.
func (c *Client) SendCorrection(m *netsim.Message) error {
	h, ok := c.handles[m.StreamID]
	if !ok {
		return fmt.Errorf("wire: stream %q is not registered on this connection", m.StreamID)
	}
	return c.surface(c.send(m, h))
}

// send adds m, named by handle h, to the write ring, flushing first when
// the deadline has passed and after when a size bound trips.
func (c *Client) send(m *netsim.Message, h uint32) error {
	if c.batch.Count() > 0 && c.batchCfg.FlushAfter > 0 && time.Since(c.lastFlush) >= c.batchCfg.FlushAfter {
		if err := c.flush(); err != nil {
			return err
		}
	}
	if c.batch.Count() == 0 {
		c.batchStart = time.Now()
	}
	if err := c.batch.AddHandle(m, h); err != nil {
		return err
	}
	c.telRingOcc.Set(float64(c.batch.Count()))
	if c.batch.Count() >= c.batchCfg.MaxCorrections || c.batch.Len() >= c.batchCfg.MaxBytes {
		return c.flush()
	}
	return nil
}

// FlushCorrections ships the pending coalesced batch, if any, and then
// reports a refusal the server pushed since the last report.
func (c *Client) FlushCorrections() error { return c.surface(c.flush()) }

// flush ships the pending coalesced batch, if any: one FrameMessageBatch
// for several corrections, a FrameMessage when only one is pending (a
// batch of one is byte-identical to a single message encoding). On
// transport failure the batch stays pending — a redial retry re-sends it
// whole, and the server's monotonic-tick guard drops any corrections that
// did land the first time.
func (c *Client) flush() error {
	n := c.batch.Count()
	if n == 0 {
		return nil
	}
	typ := FrameMessage
	if n > 1 {
		typ = FrameMessageBatch
	}
	buf := c.batch.Bytes()
	if err := c.withRetry(func() error {
		if err := WriteFrame(c.bw, typ, buf); err != nil {
			return err
		}
		return c.bw.Flush()
	}); err != nil {
		return err
	}
	c.batch.Reset()
	c.lastFlush = time.Now()
	if !c.batchStart.IsZero() {
		c.telFlushDelay.Observe(c.lastFlush.Sub(c.batchStart).Seconds())
		c.batchStart = time.Time{}
	}
	c.telRingOcc.Set(0)
	c.telFlushes.Inc()
	c.telCoalesced.Add(int64(n))
	return nil
}

// Query asks for a stream's value as of tick. Pending coalesced
// corrections flush first: a query must never observe the server behind
// corrections sent before it (the server lazily advances replicas to
// the queried tick, and a correction arriving after that advance for an
// earlier tick would apply against the wrong state).
func (c *Client) Query(id string, tick int64) (AnswerPayload, error) {
	if err := c.flush(); err != nil {
		return AnswerPayload{}, err
	}
	ans := AnswerPayload{ID: id, Tick: tick}
	c.qbuf = appendQueryBin(c.qbuf[:0], tick, id)
	err := c.withRetry(func() error {
		if err := WriteFrame(c.bw, FrameQueryBin, c.qbuf); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		payload, err := c.expect(FrameAnswerBin)
		if err != nil {
			return err
		}
		ans.Bound, ans.Estimate, err = decodeAnswerBin(payload)
		return err
	})
	if err != nil {
		return AnswerPayload{}, err
	}
	return ans, nil
}

// Ping runs one NTP-style clock-skew probe: the frame carries this
// client's wall-clock send time and the round trip the previous Ping
// measured (0 on the first, when no RTT is known), the server folds
// recv − send − rtt/2 into the connection's skew estimator, and the pong
// echo yields the RTT reported next time. Returns the measured round
// trip. Pending coalesced corrections flush first so the probe's
// position in the stream is well-defined.
func (c *Client) Ping() (time.Duration, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	if c.pingClock == nil {
		c.pingClock = freshness.WallClock()
	}
	var rtt time.Duration
	err := c.withRetry(func() error {
		var payload [16]byte
		sendNs := c.pingClock()
		binary.BigEndian.PutUint64(payload[:8], uint64(sendNs))
		binary.BigEndian.PutUint64(payload[8:], uint64(c.lastRTT))
		if err := WriteFrame(c.bw, FramePing, payload[:]); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		reply, err := c.expect(FramePong)
		if err != nil {
			return err
		}
		if len(reply) != 8 || int64(binary.BigEndian.Uint64(reply)) != sendNs {
			return fmt.Errorf("wire: pong does not echo ping send time")
		}
		rtt = time.Duration(c.pingClock() - sendNs)
		return nil
	})
	if err != nil {
		return 0, err
	}
	c.lastRTT = rtt
	return rtt, nil
}

// SendTrace ships a batch of lifecycle trace events; fire-and-forget,
// like corrections. An empty batch writes nothing. A retried batch can
// be delivered twice in rare failure windows; trace ingestion tolerates
// that (the ring is diagnostic, and the auditor's per-tick checks are
// monotonic), which beats silently losing the batch.
func (c *Client) SendTrace(evs []trace.Event) error {
	if len(evs) == 0 {
		return nil
	}
	// Gate events describe corrections that may still sit in the write
	// ring; flush them first so the server's auditor never sees a trace
	// for a correction it has not applied.
	if err := c.flush(); err != nil {
		return err
	}
	buf, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return c.surface(c.withRetry(func() error {
		if err := WriteFrame(c.bw, FrameTrace, buf); err != nil {
			return err
		}
		return c.bw.Flush()
	}))
}

// Metrics fetches the server's telemetry snapshot as Prometheus text —
// the wire-native way to observe a server with no HTTP listener.
// Pending coalesced corrections flush first so the snapshot reflects
// everything sent before it.
func (c *Client) Metrics() (string, error) {
	if err := c.flush(); err != nil {
		return "", err
	}
	var text string
	err := c.withRetry(func() error {
		if err := WriteFrame(c.bw, FrameMetrics, nil); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		payload, err := c.expect(FrameMetricsReply)
		if err != nil {
			return err
		}
		text = string(payload)
		return nil
	})
	return text, err
}

// TraceFlushEvery is the default observation interval at which a traced
// NetworkedSource drains its private journal to the server. Batching
// amortizes the JSON frame: tracing adds at most one frame per interval,
// and suppressed-tick gate events (which produce no correction traffic)
// still reach the server's auditor within a bounded lag.
const TraceFlushEvery = 64

// FeedbackPollEvery is the observation interval at which a
// NetworkedSource polls its connection for server pushes. Watchdog
// resync requests therefore reach the gate within 32 observations even
// when the source never queries.
const FeedbackPollEvery = 32

// PingEvery is the observation interval at which a stamping
// NetworkedSource sends a clock-skew probe. The server's estimator is
// EWMA-smoothed, so occasional probes suffice; a non-stamping source
// never pings (its latency spans are never computed, so skew is moot).
const PingEvery = 256

// NetworkedSource binds a local precision gate to a remote server: the
// gate's corrections go out over the client connection. When cfg.Trace
// names a private journal (one this process enables and does not share),
// the gate's lifecycle events are drained and shipped to the server as
// FrameTrace batches every TraceFlushEvery observations and on Close.
//
// The source participates in the fault-recovery loop: a server
// FrameResyncRequest push (seen via PollFeedback or any response read)
// forces a full-snapshot resync on the next observation, and so does
// every client reconnect — corrections buffered in a dead connection
// may never have arrived, and the snapshot makes that unknowable state
// irrelevant.
type NetworkedSource struct {
	client *Client
	src    *source.Source
	// journal is cfg.Trace when explicitly set; nil otherwise. Only an
	// explicit journal is drained over the wire — draining the shared
	// trace.Default would steal events from other streams in-process.
	journal *trace.Journal
	ticks   int64
	// stamped notes that cfg.Stamp was set, arming the periodic
	// clock-skew probes that make the stamps interpretable server-side.
	stamped bool
	// sendErr holds the first transport error; surfaced on Observe.
	sendErr error
}

// NewNetworkedSource registers the stream remotely and returns a gate
// whose corrections flow over the connection.
func NewNetworkedSource(client *Client, cfg source.Config) (*NetworkedSource, error) {
	ns := &NetworkedSource{client: client, journal: cfg.Trace, stamped: cfg.Stamp != nil}
	// Chain the hooks rather than replacing them: several sources can
	// share one client connection.
	prevResync := client.OnResyncRequest
	client.OnResyncRequest = func(id string) {
		if prevResync != nil {
			prevResync(id)
		}
		if id == cfg.StreamID && ns.src != nil {
			ns.src.RequestResync()
		}
	}
	prevReconnect := client.OnReconnect
	client.OnReconnect = func() {
		if prevReconnect != nil {
			prevReconnect()
		}
		if ns.src != nil {
			ns.src.RequestResync()
		}
	}
	if err := client.Register(cfg.StreamID, cfg.Spec, cfg.Delta); err != nil {
		return nil, err
	}
	src, err := source.New(cfg, func(m *netsim.Message) {
		if err := client.SendCorrection(m); err != nil && ns.sendErr == nil {
			ns.sendErr = err
		}
		// SendCorrection encoded m (into the frame or the write ring)
		// before returning, so the pooled message can be recycled here.
		netsim.PutMessage(m)
	})
	if err != nil {
		return nil, err
	}
	ns.src = src
	return ns, nil
}

// Observe feeds one measurement through the gate, shipping a correction
// over TCP when required.
func (ns *NetworkedSource) Observe(tick int64, z []float64) (sent bool, err error) {
	if ns.ticks%FeedbackPollEvery == 0 {
		// Polling before the gate runs lets a freshly-arrived resync
		// request take effect on this very observation.
		if _, perr := ns.client.PollFeedback(); perr != nil && ns.sendErr == nil {
			ns.sendErr = perr
		}
	}
	if ns.stamped && ns.ticks%PingEvery == 0 {
		// A stamping source keeps the server's skew estimate warm. The
		// first probe fires on the very first observation, so spans
		// recorded before the next one are at worst transit-uncorrected
		// rather than skew-blind.
		if _, perr := ns.client.Ping(); perr != nil && ns.sendErr == nil {
			ns.sendErr = perr
		}
	}
	ns.ticks++
	sent, err = ns.src.Observe(tick, z)
	if err != nil {
		return sent, err
	}
	if ns.sendErr != nil {
		return sent, fmt.Errorf("wire: correction send failed: %w", ns.sendErr)
	}
	if ns.journal != nil && ns.journal.Enabled() {
		if ns.ticks%TraceFlushEvery == 0 {
			if err := ns.FlushTrace(); err != nil {
				return sent, err
			}
		}
	}
	return sent, nil
}

// FlushTrace drains the private trace journal and ships the batch to the
// server as one fire-and-forget frame. No-op without an explicit
// journal or when nothing has been recorded. Call once after the last
// Observe so the server's auditor sees the final partial batch.
func (ns *NetworkedSource) FlushTrace() error {
	if ns.journal == nil {
		return nil
	}
	return ns.client.SendTrace(ns.journal.Drain())
}

// Stats exposes the gate counters.
func (ns *NetworkedSource) Stats() source.Stats { return ns.src.Stats() }

// Source exposes the underlying gate (tests force resyncs through it).
func (ns *NetworkedSource) Source() *source.Source { return ns.src }
