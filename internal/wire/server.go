package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kalmanstream/internal/core"
	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/mat"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wal"
)

// RegisterPayload announces a stream to the server; the source and server
// build their predictor replicas from the same spec it carries.
type RegisterPayload struct {
	ID    string         `json:"id"`
	Spec  predictor.Spec `json:"spec"`
	Delta float64        `json:"delta"`
}

// QueryPayload asks for a stream's value as of a tick.
type QueryPayload struct {
	ID   string `json:"id"`
	Tick int64  `json:"tick"`
}

// AnswerPayload is the bounded answer to a query.
type AnswerPayload struct {
	ID       string    `json:"id"`
	Tick     int64     `json:"tick"`
	Estimate []float64 `json:"estimate"`
	Bound    float64   `json:"bound"`
}

// connWriter serializes frame writes to one connection: the handler
// goroutine writes responses and the server's wall-clock goroutine
// pushes resync requests (push), so every write must go through the mutex.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	s    *Server
	// buf is where a frame is assembled, under mu, so that it leaves in
	// one Write: Go's TCP sockets are TCP_NODELAY, and a header written
	// apart from its payload is a segment of its own.
	buf []byte

	// remote and skew identify the connection on the /debug/latency
	// surface: skew accumulates the NTP-style offset samples from the
	// peer's FramePing probes. Both are set once in handleConn, before
	// the connection is published, and never mutated after.
	remote string
	skew   *freshness.SkewEstimator

	// frames counts the frames handled, the current one included, so the
	// first is held to the protocol floor; answer is where a reply payload
	// is encoded, estimate where a query's answer is written, and reg where
	// a register frame decodes. refs is the handle table — handle h names
	// the record refs[h] resolves — and handles maps a registered id to its
	// handle, consulted at registration only. The handler goroutine alone
	// touches them all, so none takes a lock.
	frames   int64
	answer   []byte
	estimate []float64
	reg      RegisterPayload
	refs     []server.Ref
	handles  map[string]uint32
}

// handle returns id's handle on this connection, assigning the next one on
// its first registration here; a registration again keeps the handle, and
// points it at ref, the record the server resolved this time.
func (cw *connWriter) handle(id string, ref server.Ref) uint32 {
	h, ok := cw.handles[id]
	if !ok {
		if cw.handles == nil {
			cw.handles = make(map[string]uint32)
		}
		h = uint32(len(cw.refs))
		cw.handles[id] = h
		cw.refs = append(cw.refs, ref)
	}
	cw.refs[h] = ref
	return h
}

// connOffsetNanos reads the connection's smoothed clock-skew estimate
// (0 before any ping, or on a connWriter built without an estimator).
func (cw *connWriter) connOffsetNanos() float64 {
	if cw.skew == nil {
		return 0
	}
	return cw.skew.OffsetNanos()
}

// maxAssembledPayload is the largest payload writeFrame copies behind
// its header. Answers, acks, pongs and errors are far smaller; a metrics
// snapshot can be far larger, and goes out as a two-element net.Buffers
// (one writev on a TCP connection) rather than growing every
// connection's buffer to the size of the biggest reply it ever sent.
const maxAssembledPayload = 4 << 10

func (cw *connWriter) writeFrame(typ uint8, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.writeLocked(typ, payload)
}

// pushTimeout bounds a push, which the node's one duty goroutine makes (WAL
// sync and checkpoints share it): a push that cannot take the connection
// at once — its handler is mid-write, where a peer that stopped reading
// wedges it — or cannot finish within pushTimeout is dropped, and the
// watchdog asks again a deadline later. A failed push closes the
// connection, since a partly written frame leaves it unusable.
const pushTimeout = 50 * time.Millisecond

// push writes one server-initiated frame, reporting whether it went out.
func (cw *connWriter) push(typ uint8, payload []byte) bool {
	if !cw.mu.TryLock() {
		return false
	}
	defer cw.mu.Unlock()
	_ = cw.conn.SetWriteDeadline(time.Now().Add(pushTimeout))
	if err := cw.writeLocked(typ, payload); err != nil {
		_ = cw.conn.Close()
		return false
	}
	_ = cw.conn.SetWriteDeadline(time.Time{})
	return true
}

// writeLocked assembles and writes one frame; the caller holds mu.
func (cw *connWriter) writeLocked(typ uint8, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	frame := append(cw.buf[:0], 0, 0, 0, 0, typ)
	binary.BigEndian.PutUint32(frame, uint32(len(payload)+1))
	var err error
	if len(payload) <= maxAssembledPayload {
		frame = append(frame, payload...)
		_, err = cw.conn.Write(frame)
	} else {
		_, err = (&net.Buffers{frame, payload}).WriteTo(cw.conn)
	}
	cw.buf = frame[:0]
	if err != nil {
		return err
	}
	cw.s.telBytesOut.Add(int64(5 + len(payload)))
	cw.s.telFramesOut.Inc()
	return nil
}

// Server accepts source and query connections and owns framing, the
// connections and JSON; everything per stream — the replica, its tick,
// the dedupe guard, the watchdog verdict, the owning connection — is one
// record in the protocol node (core.Node) it drives from the wall clock.
// Register, Apply, ApplyBatch and Query take no lock of this type: each
// costs one shard-lock hold, so connections working on different streams
// proceed in parallel. Per-stream operations are linearizable; a
// coalesced frame is applied record by record and is not atomic across
// streams for a reader on another connection (a connection's own frames
// are handled in order by one goroutine).
type Server struct {
	node *core.Node
	srv  *server.Server // node.Server(), resolved once for the data path

	logger  *slog.Logger
	connSeq atomic.Int64

	telConns       *telemetry.Counter
	telConnsActive *telemetry.Gauge
	telLatency     *telemetry.Histogram
	telErrors      *telemetry.Counter
	telStaleTotal  *telemetry.Counter
	telResyncReqs  *telemetry.Counter
	telPushDrops   *telemetry.Counter

	// Per-direction wire volume, resolved once: a registry lookup renders
	// and sorts its labels, which is not a per-frame cost.
	telBytesIn, telBytesOut   *telemetry.Counter
	telFramesIn, telFramesOut *telemetry.Counter

	// telFrame holds the per-kind handler latency histogram, indexed by
	// frame type so the read loop observes without a registry lookup or
	// label allocation. Only client→server kinds are populated (a binary
	// query keeps the series kind="query" the retired JSON query had, a
	// hello has none); the rest stay nil and the loop skips them.
	telFrame [FrameAnswerBin + 1]*telemetry.Histogram

	telBatches     *telemetry.Counter
	telBatchedMsgs *telemetry.Histogram

	// clock is the server's arrival clock (monotonic-anchored wall time):
	// it stamps applies and query ages, and drives the node's duties.
	// conns is the live connection set, published for /debug/latency skew
	// rows; connMu guards it and is taken only on connect, disconnect and
	// that endpoint.
	clock  freshness.Clock
	connMu sync.Mutex
	conns  map[*connWriter]struct{}

	// stop and done bracket the one wall-clock goroutine (both nil when
	// no duty is armed, and none runs); Close is the one shutdown.
	stop, done chan struct{}
	closeOnce  sync.Once
	closeErr   error
}

// Options configures a wire server beyond the defaults.
type Options struct {
	// Logger receives structured diagnostics (default slog.Default()).
	Logger *slog.Logger
	// Metrics is the telemetry registry (default telemetry.Default).
	Metrics *telemetry.Registry
	// Trace is the lifecycle trace journal (default trace.Default).
	// Replica applies and queries record events on it when enabled, and
	// FrameTrace batches from sources are ingested into it.
	Trace *trace.Journal
	// StaleAfter arms the wall-clock staleness watchdog: a stream with
	// no traffic (correction, resync, or heartbeat) for this long is
	// marked stale and sent a FrameResyncRequest push on the connection
	// that registered it, repeated every StaleAfter while the silence
	// lasts. Zero leaves the watchdog off. Wall-clock, not ticks: a
	// networked source drives its own clock, so a silent stream's tick
	// counter does not advance and tick staleness cannot be observed.
	StaleAfter time.Duration
	// Health, when non-nil, receives the server's four default SLOs (δ
	// audit error ratio, staleness, frame-handle p99, freshness p99) and
	// is bound to History, whose tier holds its windows: Health without
	// History is a construction error.
	Health *health.Monitor
	// Diag, when non-nil, arms the flight recorder (core.NodeConfig.Diag):
	// its tables read the stream records when asked, so an armed dispatch
	// path does exactly what an unarmed one does
	// (TestMessageDispatchZeroAllocWithDiag).
	Diag *diag.Recorder
	// History, when non-nil, is the multi-resolution telemetry history
	// store recording this server's registry, served at /debug/history
	// and read by Health.
	History *history.Store
	// HistoryEvery ticks History, then Health, on the server's one
	// wall-clock goroutine (kfserver's -history-interval). Zero leaves
	// both to the caller.
	HistoryEvery time.Duration
}

// NewServer returns an empty wire server instrumented against
// telemetry.Default.
func NewServer() *Server { return NewServerWith(Options{}) }

// NewServerWith returns an empty wire server with explicit observability
// wiring (tests use a private registry so assertions don't race other
// tests sharing the default one). It panics on a Health without a
// History to read; NewDurableServer returns that as an error.
func NewServerWith(opts Options) *Server {
	s, err := newServer(opts, Durability{})
	if err != nil {
		panic(err)
	}
	return s
}

// DefaultFlushEvery is the group-commit fsync cadence when
// Durability.FlushEvery is zero: short enough that a crash loses a
// barely-visible sliver of traffic, long enough to amortize the fsync
// over many corrections.
const DefaultFlushEvery = 100 * time.Millisecond

// Durability configures the write-ahead log for NewDurableServer.
type Durability struct {
	// Dir is the log directory. Required.
	Dir string
	// CheckpointEvery writes a full predictor-snapshot checkpoint (and
	// prunes covered segments) on this cadence. Zero disables periodic
	// checkpoints; Checkpoint can still be called explicitly.
	CheckpointEvery time.Duration
	// FlushEvery is the group-commit fsync cadence (0 =
	// DefaultFlushEvery). A crash loses at most this much traffic, which
	// the protocol absorbs: reconnecting sources force a full resync and
	// the monotonic-tick guard drops re-sent duplicates.
	FlushEvery time.Duration
}

// NewDurableServer opens (or recovers) the log directory in d.Dir and
// replays it into a fresh server before it can accept a single frame;
// from then on every registration and applied message is logged, and the
// server's goroutine syncs and checkpoints. Call Close on shutdown.
func NewDurableServer(opts Options, d Durability) (*Server, error) {
	if d.Dir == "" {
		return nil, fmt.Errorf("wire: durability needs a directory")
	}
	return newServer(opts, d)
}

// newServer builds the node, then the connection layer around it, and
// starts the one wall-clock goroutine only once both exist — and only
// when some duty is armed: a bare server runs none.
func newServer(opts Options, d Durability) (*Server, error) {
	s := &Server{logger: opts.Logger, clock: freshness.WallClock(), conns: make(map[*connWriter]struct{})}
	flush := d.FlushEvery
	if flush <= 0 {
		flush = DefaultFlushEvery
	}
	node, err := core.NewNode(core.NodeConfig{
		Telemetry: opts.Metrics, Trace: opts.Trace, Logger: opts.Logger,
		Clock: s.clock, ConnSkews: s.ConnSkews, Audit: true, Freshness: true,
		History: opts.History, HistoryEvery: int64(opts.HistoryEvery), Health: opts.Health, Diag: opts.Diag,
		WALDir: d.Dir, FlushEvery: int64(flush), CheckpointEvery: int64(d.CheckpointEvery),
		StaleAfter: int64(opts.StaleAfter),
	})
	if err != nil {
		return nil, err
	}
	reg := node.Registry()
	s.node, s.srv = node, node.Server()
	s.telConns = reg.Counter("wire_connections_total")
	s.telConnsActive = reg.Gauge("wire_connections_active")
	s.telBytesIn = reg.Counter("wire_bytes_total", "direction", "in")
	s.telBytesOut = reg.Counter("wire_bytes_total", "direction", "out")
	s.telFramesIn = reg.Counter("wire_frames_total", "direction", "in")
	s.telFramesOut = reg.Counter("wire_frames_total", "direction", "out")
	s.telLatency = reg.Histogram("query_latency_seconds", telemetry.LatencyBuckets)
	s.telErrors = reg.Counter("wire_errors_total")
	s.telStaleTotal = reg.Counter("watchdog_stale_total")
	s.telResyncReqs = reg.Counter("watchdog_resync_requests_total")
	s.telPushDrops = reg.Counter("wire_pushes_dropped_total")
	s.telBatches = reg.Counter("wire_frames_coalesced_total")
	s.telBatchedMsgs = reg.Histogram("wire_corrections_per_frame", telemetry.BatchSizeBuckets)
	for _, typ := range []uint8{FrameRegister, FrameMessage, FrameQueryBin, FrameMetrics, FrameTrace, FrameMessageBatch, FramePing} {
		kind := FrameName(typ)
		if typ == FrameQueryBin {
			kind = "query"
		}
		s.telFrame[typ] = reg.Histogram("wire_frame_handle_seconds", telemetry.LatencyBuckets, "kind", kind)
	}
	reg.Help("wire_frame_handle_seconds", "inbound frame handling latency by frame kind")
	reg.Help("wire_frames_coalesced_total", "batched correction frames received")
	reg.Help("wire_corrections_per_frame", "messages carried per coalesced frame")
	reg.Help("corrections_sent_total", "corrections applied")
	reg.Help("corrections_suppressed_total", "replica ticks advanced without a correction")
	reg.Help("wire_bytes_total", "bytes on the wire by direction")
	reg.Help("query_latency_seconds", "wire query handling latency")
	reg.Help("watchdog_resync_requests_total", "resync requests pushed to sources")
	reg.Help("wire_pushes_dropped_total", "server pushes dropped: connection busy or write past the push deadline")
	if opts.Health != nil {
		if err := declareSLOs(opts.Health); err != nil {
			_ = node.Close()
			return nil, fmt.Errorf("wire: health wiring: %w", err)
		}
	}
	if p := node.Period(); p > 0 {
		s.stop, s.done = make(chan struct{}), make(chan struct{})
		go s.run(time.Duration(p))
	}
	return s, nil
}

// Default SLO parameters wired by declareSLOs: the audit error budget
// (fraction of audited ticks allowed to violate δ), and the frame-handle
// latency objective (p99 under 10ms — generous for an in-memory apply,
// tight enough to catch lock contention or a scheduling collapse).
const (
	DefaultAuditErrorBudget = 0.01
	DefaultFrameP99Bound    = 1e-2
	// DefaultFreshnessP99Bound is the gate→apply latency objective for
	// stamped corrections: p99 under 25ms. A healthy loopback or LAN hop
	// sits orders of magnitude below it; a chaos delay burst or a real
	// network brownout blows through it and burns the freshness budget.
	DefaultFreshnessP99Bound = 2.5e-2
)

// declareSLOs declares the four default objectives over the server's own
// series on the monitor the node bound to its history store: δ violations
// per audited tick under DefaultAuditErrorBudget (audit-error-ratio), no
// stream past the watchdog deadline (streams-stale: zero budget, so any
// stale window pages), and correction-frame handling and stamped
// gate→apply latency p99 under their bounds (frame-p99, freshness-p99).
func declareSLOs(m *health.Monitor) error {
	return errors.Join(
		m.RatioSLO("audit-error-ratio", "audit_delta_violations_total", "audit_ticks_total",
			DefaultAuditErrorBudget, health.Thresholds{}),
		m.GaugeSLO("streams-stale", "streams_stale", 0, health.Thresholds{}),
		m.LatencySLO("frame-p99", `wire_frame_handle_seconds{kind="message"}`, 0.99,
			DefaultFrameP99Bound, health.Thresholds{}),
		m.LatencySLO("freshness-p99", freshness.SeriesE2ELatency, 0.99,
			DefaultFreshnessP99Bound, health.Thresholds{}),
	)
}

// HealthStreams snapshots every registered stream's cumulative counters
// for the /debug/health payload, sorted by ID.
func (s *Server) HealthStreams() []health.StreamStat {
	infos := s.srv.Infos()
	out := make([]health.StreamStat, len(infos))
	for i, info := range infos {
		out[i] = health.StreamStat{ID: info.ID, Sent: info.Corrections,
			Suppressed: info.Suppressed, Delta: info.Delta, Stale: info.Stale}
	}
	return out
}

// run is the server's one wall-clock goroutine. Every period — the
// cadence of the fastest armed duty — it runs the node's due duties
// (core.Node.Tick: WAL sync, checkpoint, silence scan, streams_stale,
// history store, monitor) and then the resync pushes the scan owes.
func (s *Server) run(period time.Duration) {
	defer close(s.done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			silent, err := s.node.Tick(s.clock())
			if err != nil {
				s.logw("wire: node duty failed", "err", err)
			}
			s.pushResyncs(silent)
		}
	}
}

// pushResyncs reports the scan's new stale verdicts and pushes the resync
// requests it owes to the owning connections, outside every lock, so a
// slow peer cannot stall a shard, and each within pushTimeout, so a peer
// that stopped reading cannot stall the node's duties.
func (s *Server) pushResyncs(found []server.Silent) {
	for _, f := range found {
		if f.Marked {
			s.telStaleTotal.Inc()
			s.logw("wire: stream stale", "stream", f.ID, "silent", time.Duration(f.For).Round(time.Millisecond))
		}
		if f.Owner == nil {
			continue
		}
		if !f.Owner.(*connWriter).push(FrameResyncRequest, []byte(f.ID)) {
			s.telPushDrops.Inc()
			s.logw("wire: resync-request push dropped", "stream", f.ID)
			continue
		}
		s.telResyncReqs.Inc()
	}
}

// Close is the server's one shutdown: it stops the wall-clock goroutine,
// then syncs and closes the write-ahead log, so a graceful shutdown loses
// nothing. Safe on a bare server and safe to call twice.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
		s.closeErr = s.node.Close()
	})
	return s.closeErr
}

// RecoveryStats reports what the constructor's recovery pass restored
// and replayed (zero value when the directory was empty or the server
// is not durable).
func (s *Server) RecoveryStats() wal.RecoveryStats { return s.node.RecoveryStats() }

// WAL returns the server's write-ahead log (nil when not durable).
func (s *Server) WAL() *wal.Log { return s.node.WAL() }

// Checkpoint captures every stream's state at one instant (see
// server.Checkpoint) and writes it durably, pruning the log prefix it
// covers; the cut takes every shard lock, the write none.
func (s *Server) Checkpoint() error { return s.node.Checkpoint() }

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *telemetry.Registry { return s.node.Registry() }

// Trace returns the server's lifecycle trace journal.
func (s *Server) Trace() *trace.Journal { return s.node.Trace() }

// Auditor returns the server's online precision auditor. It consumes the
// gate events sources ship via FrameTrace, counting δ violations —
// suppressed ticks whose deviation exceeded the bound the server was
// promising at the time.
func (s *Server) Auditor() *trace.Auditor { return s.node.Auditor() }

// logw emits one structured diagnostic record at Warn level.
func (s *Server) logw(msg string, args ...any) {
	l := s.logger
	if l == nil {
		l = slog.Default()
	}
	l.Warn(msg, args...)
}

// Register creates a stream replica or, for a reconnecting source
// announcing an identical registration, adopts the existing one (see
// server.Adopt). Exposed for in-process use and tests: the stream has no
// owning connection; connections register via FrameRegister.
func (s *Server) Register(p RegisterPayload) error {
	_, err := s.srv.Adopt(p.ID, p.Spec, p.Delta, nil, s.clock())
	return err
}

// Apply ingests a correction, rolling the replica to the message's tick
// first. Messages at or before the last applied tick are discarded: a
// reconnecting source may replay a tail the server already applied, and
// applying a correction twice would double-step the replica.
func (s *Server) Apply(m *netsim.Message) error {
	applied, recovered, err := s.srv.Ingest(m, s.clock())
	return s.ingested(m, 0, applied, recovered, err)
}

// ingestRecord decodes the handle-form correction record at the front of
// buf into msg, applies it to the record the connection's handle names,
// and returns the rest of buf. With whole set the record must be all of
// buf, and is refused before it applies when it is not. now is the arrival
// time and offsetNs the connection's clock-skew estimate.
func (s *Server) ingestRecord(cw *connWriter, msg *netsim.Message, buf []byte, whole bool, now int64, offsetNs float64) ([]byte, error) {
	h, rest, err := netsim.DecodeNextHandle(msg, buf)
	if err == nil && whole && len(rest) != 0 {
		err = fmt.Errorf("netsim: %d trailing bytes after message", len(rest))
	}
	if err != nil {
		return nil, err
	}
	if int(h) >= len(cw.refs) {
		return nil, fmt.Errorf("wire: %w: no handle %d on this connection", server.ErrUnknownStream, h)
	}
	applied, recovered, err := s.srv.IngestRef(cw.refs[h], msg, now)
	return rest, s.ingested(msg, offsetNs, applied, recovered, err)
}

// ingested finishes one ingest of m on a connection whose clock-skew
// estimate is offsetNs (nanoseconds, 0 for in-process callers where no
// skew exists): it reports a cleared stale verdict and closes a stamped
// message's latency span.
func (s *Server) ingested(m *netsim.Message, offsetNs float64, applied, recovered bool, err error) error {
	if err != nil {
		return err
	}
	if recovered {
		s.logw("wire: stream recovered", "stream", m.StreamID)
	}
	if applied && m.Stamp != 0 && m.Kind != netsim.KindHeartbeat {
		// The source stamped its gate time: close the span. An unstamped
		// message pays exactly one branch here, keeping the warm apply
		// path allocation-free.
		s.node.Freshness().RecordE2E(freshness.E2ESeconds(m.Stamp, s.clock(), offsetNs), m.Trace, m.StreamID)
	}
	return nil
}

// ApplyBatch ingests one coalesced payload of id-form records, in process:
// concatenated netsim message encodings, decoded in place into scratch and
// applied one by one, each under its own stream's shard lock. It returns
// how many messages were applied. A decode or apply error aborts the rest
// of the batch; everything before the failure stays applied, which matches
// the semantics of the same messages arriving as individual frames on a
// link that then died.
func (s *Server) ApplyBatch(payload []byte, scratch *netsim.Message) (int, error) {
	n := 0
	for rest := payload; len(rest) > 0; n++ {
		var err error
		if rest, err = netsim.DecodeNext(scratch, rest); err == nil {
			err = s.Apply(scratch)
		}
		if err != nil {
			return n, fmt.Errorf("wire: batch record %d: %w", n, err)
		}
	}
	return n, nil
}

// lookAhead is how many records applyBatch's prefetch cursor runs ahead
// of its apply cursor: a frame coalesced at 64 corrections whole, four
// at CoalesceConfig's default of 16.
const lookAhead = 64

// applyBatch is ApplyBatch for a connection's handle-form records, with
// its skew estimate threaded through to each record's latency span. A
// second cursor runs lookAhead records ahead, peeking each record's handle
// and prefetching the record it names (server.Ref.Prefetch), so the
// cache misses of records idle since the last frame overlap instead of
// stalling the apply loop one after another. It only reads: decode, apply
// order and refusal are the apply cursor's alone.
func (s *Server) applyBatch(cw *connWriter, payload []byte, scratch *netsim.Message) (int, error) {
	now, offsetNs := s.clock(), cw.connOffsetNanos()
	ahead := payload
	for range lookAhead {
		ahead = cw.prefetch(ahead)
	}
	n := 0
	for rest := payload; len(rest) > 0; n++ {
		ahead = cw.prefetch(ahead)
		var err error
		if rest, err = s.ingestRecord(cw, scratch, rest, false, now, offsetNs); err != nil {
			return n, fmt.Errorf("wire: batch record %d: %w", n, err)
		}
	}
	return n, nil
}

// prefetch pulls the record named by the handle-form record at the front
// of buf into cache and returns what follows it — nil once buf holds no
// whole record, which ends the look-ahead. A handle this connection never
// assigned prefetches nothing.
func (cw *connWriter) prefetch(buf []byte) []byte {
	h, rest, ok := netsim.PeekHandle(buf)
	if ok && int(h) < len(cw.refs) {
		cw.refs[h].Prefetch()
	}
	return rest
}

// Query answers a stream's value as of the given tick.
func (s *Server) Query(q QueryPayload) (AnswerPayload, error) {
	a, err := s.served(server.Query(s.srv, q.ID, q.Tick, nil))
	if err != nil {
		return AnswerPayload{}, err
	}
	return AnswerPayload{ID: q.ID, Tick: q.Tick, Estimate: a.Estimate, Bound: a.Bound}, nil
}

// served records a served query's staleness: how old its prediction basis
// is in wall time — none for an exact answer (bound 0), the stream's last
// traffic's age for a bounded one — with the trace ID of the correction
// the answer was served from, and passes the answer on.
func (s *Server) served(a server.Answer, err error) (server.Answer, error) {
	if err != nil {
		return a, err
	}
	var age float64
	if a.Bound > 0 {
		age = float64(s.clock()-a.Heard) / 1e9
	}
	s.node.Freshness().RecordStaleness(age, a.LastTrace, a.ID)
	return a, nil
}

// MetricsText renders the server's telemetry registry in Prometheus text
// form (also served over the wire via FrameMetrics).
func (s *Server) MetricsText() ([]byte, error) {
	var b bytes.Buffer
	if err := s.node.Registry().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	connID := s.connSeq.Add(1)
	s.telConns.Inc()
	s.telConnsActive.Add(1)
	defer s.telConnsActive.Add(-1)

	// All writes to this connection — handler responses and watchdog
	// pushes alike — go through one connWriter so they never interleave.
	cw := &connWriter{
		conn:   conn,
		s:      s,
		remote: conn.RemoteAddr().String(),
		skew:   freshness.NewSkewEstimator(0),
	}
	s.connMu.Lock()
	s.conns[cw] = struct{}{}
	s.connMu.Unlock()
	defer s.releaseConn(cw)

	// One decode target per connection: the record decoders reuse its
	// Value storage and the ingest points its StreamID at the stream
	// record's own id, so a steady correction stream, over one stream or
	// many, decodes without allocating. Frames arrive the same way — through one buffered
	// reader (a batch and the frames queued behind it cost one read
	// syscall, not two each) into one body buffer — so payload is valid
	// only until the next read: every route arm copies what it keeps.
	var msg netsim.Message
	br := bufio.NewReader(conn)
	var body []byte
	for {
		typ, payload, err := readFrameInto(br, &body)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.telErrors.Inc()
				s.logw("wire: read failed", "remote", conn.RemoteAddr().String(), "conn", connID, "err", err)
			}
			return
		}
		// Frame overhead is 4 length bytes + 1 type byte.
		s.telBytesIn.Add(int64(5 + len(payload)))
		s.telFramesIn.Inc()
		if err := s.dispatch(cw, typ, payload, &msg); err != nil {
			s.telErrors.Inc()
			// A first frame below the protocol floor gets one FrameError and
			// the connection closes. Past it, a refused fire-and-forget frame
			// answers no request: it is pushed as FrameRefused, so FrameError
			// only ever answers the request the peer just sent.
			floor := cw.frames == 1
			reply := FrameError
			if !floor && (typ == FrameMessage || typ == FrameMessageBatch || typ == FrameTrace) {
				reply = FrameRefused
			}
			if writeErr := cw.writeFrame(reply, []byte(err.Error())); writeErr != nil {
				s.logw("wire: write error frame failed",
					"remote", conn.RemoteAddr().String(), "conn", connID, "err", writeErr)
				return
			}
			if floor {
				return
			}
		}
	}
}

// releaseConn forgets a closing connection: it leaves the live set and
// stops being the push target of the streams it registered.
func (s *Server) releaseConn(cw *connWriter) {
	s.connMu.Lock()
	delete(s.conns, cw)
	s.connMu.Unlock()
	s.srv.ReleaseOwner(cw)
}

// Freshness returns the server's latency recorder (the HTTP layer serves
// it at /debug/latency).
func (s *Server) Freshness() *freshness.Recorder { return s.node.Freshness() }

// ConnSkews snapshots every live connection's clock-skew estimate for
// the /debug/latency surface. Connections that have never pinged are
// skipped — they contribute no estimate.
func (s *Server) ConnSkews() []freshness.ConnSkew {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	var out []freshness.ConnSkew
	for cw := range s.conns {
		n := cw.skew.Samples()
		if n == 0 {
			continue
		}
		out = append(out, freshness.ConnSkew{
			Remote:        cw.remote,
			OffsetSeconds: cw.skew.OffsetNanos() / 1e9,
			RTTSeconds:    cw.skew.RTTNanos() / 1e9,
			Samples:       n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Remote < out[j].Remote })
	return out
}

// dispatch routes one inbound frame, timing the handler into the
// per-kind wire_frame_handle_seconds series. A connection's first frame
// goes to hello instead. Unknown kinds have no series (nil slot) and are
// not timed.
func (s *Server) dispatch(cw *connWriter, typ uint8, payload []byte, msg *netsim.Message) error {
	if cw.frames++; cw.frames == 1 {
		return s.hello(cw, typ, payload)
	}
	var h *telemetry.Histogram
	if int(typ) < len(s.telFrame) {
		h = s.telFrame[typ]
	}
	if h == nil {
		return s.route(cw, typ, payload, msg)
	}
	start := time.Now()
	err := s.route(cw, typ, payload, msg)
	h.Observe(time.Since(start).Seconds())
	return err
}

// errBelowFloor refuses a connection whose first frame is not a hello
// asking for every capability the server speaks.
var errBelowFloor = errors.New("wire: below the protocol floor: a connection's first frame must be a hello asking for bits 0|1 (CapBinaryQuery|CapStreamHandles)")

// hello holds a connection's first frame to the protocol floor and grants
// the capabilities both sides speak: the AND of the two words, which the
// floor makes exactly serverCaps.
func (s *Server) hello(cw *connWriter, typ uint8, payload []byte) error {
	if typ != FrameHello {
		return errBelowFloor
	}
	caps, err := decodeHello(payload)
	if err != nil || caps&serverCaps != serverCaps {
		return errBelowFloor
	}
	return cw.writeFrame(FrameHello, appendHello(cw.answer[:0], serverCaps))
}

// queryBin answers a FrameQueryBin, observed into query_latency_seconds,
// into the connection's own buffer: it allocates nothing. A non-finite
// estimate is refused: the answer would not be a bound.
func (s *Server) queryBin(cw *connWriter, payload []byte) error {
	tick, id, err := decodeQueryBin(payload)
	if err != nil {
		return err
	}
	start := time.Now()
	ans, err := s.served(server.Query(s.srv, id, tick, cw.estimate))
	s.telLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		return err
	}
	cw.estimate = ans.Estimate
	if !mat.VecIsFinite(ans.Estimate) {
		return fmt.Errorf("wire: stream %q has a non-finite estimate %v", ans.ID, ans.Estimate)
	}
	cw.answer = appendAnswerBin(cw.answer[:0], ans.Bound, ans.Estimate)
	return cw.writeFrame(FrameAnswerBin, cw.answer)
}

func (s *Server) route(cw *connWriter, typ uint8, payload []byte, msg *netsim.Message) error {
	switch typ {
	case FrameRegister:
		p := &cw.reg
		*p = RegisterPayload{} // so that no field carries over from the last frame
		if err := json.Unmarshal(payload, p); err != nil {
			return fmt.Errorf("wire: bad register payload: %w", err)
		}
		ref, err := s.srv.Adopt(p.ID, p.Spec, p.Delta, cw, s.clock())
		if err != nil {
			return err
		}
		cw.answer = binary.BigEndian.AppendUint32(cw.answer[:0], cw.handle(p.ID, ref))
		return cw.writeFrame(FrameOK, cw.answer)
	case FrameMessage:
		// Corrections are fire-and-forget: no ack, so a source's send
		// path costs exactly one frame — the property being measured.
		// Apply copies what it keeps, so reusing msg across frames is
		// safe.
		_, err := s.ingestRecord(cw, msg, payload, true, s.clock(), cw.connOffsetNanos())
		return err
	case FrameMessageBatch:
		// Coalesced corrections: sub-records decode into the connection's
		// scratch message (no per-correction allocation) and apply one by
		// one inside applyBatch.
		n, err := s.applyBatch(cw, payload, msg)
		if n > 0 {
			s.telBatches.Inc()
			s.telBatchedMsgs.Observe(float64(n))
		}
		return err
	case FrameHello:
		return errors.New("wire: hello must be a connection's first frame")
	case FrameQueryBin:
		return s.queryBin(cw, payload)
	case FrameTrace:
		var evs []trace.Event
		if err := json.Unmarshal(payload, &evs); err != nil {
			return fmt.Errorf("wire: bad trace payload: %w", err)
		}
		// Fire-and-forget, like corrections. The journal keeps the events
		// only while tracing is enabled; the auditor always consumes gate
		// decisions so δ-violation counters work without the ring. An event
		// naming a stream the node has no record of refuses the rest of the
		// frame, as a dead handle aborts its batch: the auditor keeps one
		// entry per stream it hears of, so only registered streams may
		// grow it.
		for i := range evs {
			if _, err := s.srv.Delta(evs[i].StreamID); err != nil {
				return fmt.Errorf("wire: trace event %d: %w", i, err)
			}
			s.node.Trace().Record(evs[i])
			s.node.Auditor().Ingest(evs[i])
		}
		return nil
	case FramePing:
		// NTP-style skew probe: [client_send_ns(8)][last_rtt_ns(8)]. The
		// offset sample recv − send − rtt/2 folds into this connection's
		// estimator; the pong echoes the send time so the client can
		// measure the round trip it will report on its next ping.
		if len(payload) != 16 {
			return fmt.Errorf("wire: bad ping payload length %d", len(payload))
		}
		sendNs := int64(binary.BigEndian.Uint64(payload[:8]))
		rttNs := int64(binary.BigEndian.Uint64(payload[8:16]))
		if cw.skew != nil {
			off := cw.skew.Observe(s.clock(), sendNs, rttNs)
			s.node.Freshness().SetSkew(off / 1e9)
		}
		return cw.writeFrame(FramePong, payload[:8])
	case FrameMetrics:
		text, err := s.MetricsText()
		if err != nil {
			return err
		}
		if len(text)+1 > MaxFrameSize {
			return fmt.Errorf("wire: metrics snapshot (%d bytes) exceeds frame limit", len(text))
		}
		return cw.writeFrame(FrameMetricsReply, text)
	default:
		return fmt.Errorf("wire: unexpected frame type %d (%s)", typ, FrameName(typ))
	}
}
