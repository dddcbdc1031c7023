// Package source implements the client half of the dual-predictor
// protocol: the precision gate that decides, measurement by measurement,
// whether the server's replica can be trusted to predict this tick within
// the precision bound δ — in which case nothing is sent — or whether a
// correction message must be shipped.
//
// The source owns a replica of the *server's* predictor. Because the
// replica is deterministic and both sides apply exactly the corrections
// that cross the wire, the source always knows precisely what the server
// is answering, without asking. This is the paper's "cache dynamic
// procedures, not static data" inversion.
package source

import (
	"fmt"
	"math"
	"sync/atomic"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// Norm selects the deviation norm used by the precision gate.
type Norm uint8

// Norms.
const (
	// NormInf bounds every component independently: a correction is sent
	// when any |zᵢ − predᵢ| exceeds δ. The natural choice for scalar
	// streams and for per-attribute guarantees.
	NormInf Norm = iota
	// NormL2 bounds the Euclidean distance — the natural choice for
	// positions of moving objects.
	NormL2
)

func (n Norm) String() string {
	switch n {
	case NormInf:
		return "Linf"
	case NormL2:
		return "L2"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(n))
	}
}

// Deviation returns the norm of the element-wise difference between z and
// pred.
func (n Norm) Deviation(z, pred []float64) float64 {
	switch n {
	case NormL2:
		var s float64
		for i := range z {
			d := z[i] - pred[i]
			s += d * d
		}
		return math.Sqrt(s)
	default:
		var m float64
		for i := range z {
			if d := math.Abs(z[i] - pred[i]); d > m {
				m = d
			}
		}
		return m
	}
}

// Config describes one source.
type Config struct {
	// StreamID identifies the stream at the server.
	StreamID string
	// Spec is the shared predictor specification; the server must
	// register the same spec.
	Spec predictor.Spec
	// Delta is the precision bound δ. Zero means "ship everything".
	Delta float64
	// DeviationNorm selects the gate norm (default NormInf).
	DeviationNorm Norm
	// HeartbeatEvery forces a correction after this many consecutive
	// suppressed ticks, bounding server staleness. Zero disables
	// heartbeats.
	HeartbeatEvery int64
	// ResyncEvery upgrades every Nth sent correction to a resync message
	// carrying a full predictor snapshot, healing any replica divergence
	// caused by message loss. Zero disables resyncs. On loss-free links
	// resyncs are pure (bytes) overhead; on lossy links they bound how
	// long a divergence can persist.
	ResyncEvery int64
	// Telemetry receives the gate's five counter totals
	// (corrections_sent_total, corrections_suppressed_total, …), one series
	// per name shared by every source on the registry; a suppressed tick
	// bumps one of them. Nil means telemetry.Default.
	Telemetry *telemetry.Registry
	// Trace receives gate-decision lifecycle events and allocates the
	// trace IDs shipped in-band on corrections; nil means trace.Default.
	// While tracing is disabled the gate pays one atomic load per tick.
	Trace *trace.Journal
	// Stamp, when non-nil, reads the origin clock (nanoseconds, must be
	// positive) stamped on every shipped message — the start of the
	// end-to-end freshness span the server closes on apply. Use
	// freshness.WallClock for real deployments, or a tick-derived virtual
	// clock in the simulation. Nil leaves messages unstamped, keeping
	// their encodings byte-identical to the pre-freshness protocol.
	Stamp func() int64
}

// Stats counts the gate's decisions.
type Stats struct {
	Ticks      int64 // Sent + Suppressed + ticks whose replica Correct failed
	Sent       int64
	Suppressed int64
	Heartbeats int64 // corrections forced by the heartbeat policy (subset of Sent)
	Resyncs    int64 // corrections upgraded to snapshots (subset of Sent)
	// ResyncRequests counts server-issued resynchronization requests
	// received on the feedback channel (or via RequestResync).
	ResyncRequests int64
	// ForcedResyncs counts resyncs shipped in answer to a request,
	// bypassing the gate (subset of Resyncs).
	ForcedResyncs int64
	// MaxSuppressedDeviation is the largest deviation ever allowed
	// through suppression — by construction ≤ δ at the time of the
	// decision.
	MaxSuppressedDeviation float64
}

// SuppressionRatio is the fraction of ticks that required no message.
func (s Stats) SuppressionRatio() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.Suppressed) / float64(s.Ticks)
}

// Source is the client-side gate for a single stream. Observe must be
// called from one goroutine at a time, but Stats, Delta, and Prediction
// readers may run concurrently with it: every counter Stats reports is
// atomic.
type Source struct {
	cfg     Config
	replica predictor.Predictor
	send    func(*netsim.Message)
	tr      *trace.Journal

	run int64 // consecutive suppressed ticks (Observe-goroutine only)

	// Per-tick fast-path state (Observe-goroutine only). dim caches
	// replica.Dim(); predScratch is the buffer the replica predicts into
	// every tick, making the suppressed path allocation-free.
	dim         int
	predScratch []float64

	// resyncRequested is set by the server's staleness watchdog (via the
	// feedback channel) or a reconnecting transport; the next Observe
	// answers with a full-snapshot resync, bypassing the gate. Atomic:
	// feedback may arrive from a different goroutine than Observe's.
	resyncRequested atomic.Bool

	// Gate counters. Atomic so Stats() taken from a monitoring
	// goroutine is a coherent snapshot rather than a racy copy. Ticks is
	// derived (Stats); failed counts ticks whose replica Correct failed.
	failed         atomic.Int64
	sent           atomic.Int64
	suppressed     atomic.Int64
	heartbeats     atomic.Int64
	resyncs        atomic.Int64
	resyncRequests atomic.Int64
	forcedResyncs  atomic.Int64
	maxSuppDevBits atomic.Uint64

	// Telemetry handles, resolved once at construction so the per-tick
	// cost is a few atomic adds. The registry holds totals: every source
	// on one registry shares these series, and a stream's own numbers are
	// the atomics above (Stats).
	telSent           *telemetry.Counter
	telSuppressed     *telemetry.Counter
	telHeartbeats     *telemetry.Counter
	telResyncs        *telemetry.Counter
	telResyncRequests *telemetry.Counter
}

// New constructs a source whose corrections are transmitted via send.
func New(cfg Config, send func(*netsim.Message)) (*Source, error) {
	if cfg.StreamID == "" {
		return nil, fmt.Errorf("source: empty stream id")
	}
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("source: negative delta %g", cfg.Delta)
	}
	if send == nil {
		return nil, fmt.Errorf("source: nil send function")
	}
	replica, err := cfg.Spec.Build()
	if err != nil {
		return nil, fmt.Errorf("source: building replica: %w", err)
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	tr := cfg.Trace
	if tr == nil {
		tr = trace.Default
	}
	s := &Source{
		cfg:               cfg,
		replica:           replica,
		send:              send,
		tr:                tr,
		dim:               replica.Dim(),
		predScratch:       make([]float64, replica.Dim()),
		telSent:           reg.Counter("corrections_sent_total"),
		telSuppressed:     reg.Counter("corrections_suppressed_total"),
		telHeartbeats:     reg.Counter("heartbeats_total"),
		telResyncs:        reg.Counter("resyncs_total"),
		telResyncRequests: reg.Counter("resync_requests_total"),
	}
	return s, nil
}

// Observe processes the measurement for one tick: advances the replica,
// applies the precision gate, and ships a correction when needed. It
// reports whether a message was sent.
func (s *Source) Observe(tick int64, z []float64) (sent bool, err error) {
	if len(z) != s.dim {
		return false, fmt.Errorf("source %s: measurement dim %d, want %d", s.cfg.StreamID, len(z), s.dim)
	}
	s.replica.Step()

	dev := s.cfg.DeviationNorm.Deviation(z, s.replica.PredictInto(0, s.predScratch))
	traced := s.tr.Enabled()

	// A pending resync request bypasses the gate: the server believes its
	// replica may have diverged, so this tick must ship a full snapshot
	// no matter how small the deviation is. The flag is read first and
	// swapped only when set, so a tick with no request writes nothing.
	forced := s.resyncRequested.Load() && s.resyncRequested.Swap(false)
	heartbeatDue := s.cfg.HeartbeatEvery > 0 && s.run >= s.cfg.HeartbeatEvery
	if dev <= s.cfg.Delta && !heartbeatDue && !forced {
		s.run++
		s.suppressed.Add(1)
		s.telSuppressed.Inc()
		for {
			old := s.maxSuppDevBits.Load()
			if dev <= math.Float64frombits(old) {
				break
			}
			if s.maxSuppDevBits.CompareAndSwap(old, math.Float64bits(dev)) {
				break
			}
		}
		if traced {
			s.traceGate(trace.OutcomeSuppressed, 0, tick, dev)
		}
		return false, nil
	}

	if err := s.replica.Correct(z); err != nil {
		s.failed.Add(1)
		return false, fmt.Errorf("source %s: correcting replica: %w", s.cfg.StreamID, err)
	}
	// The message owns its value: on a delayed link it sits queued after
	// Observe returns, so aliasing the caller's measurement slice would
	// corrupt in-flight corrections if the caller reuses its buffer. The
	// message itself comes from the shared pool; whoever receives it may
	// recycle it with netsim.PutMessage once done.
	msg := netsim.GetMessage()
	msg.Kind = netsim.KindCorrection
	msg.StreamID = s.cfg.StreamID
	msg.Tick = tick
	msg.Value = append(msg.Value[:0], z...)
	outcome := trace.OutcomeSent
	resyncDue := s.cfg.ResyncEvery > 0 && (s.sent.Load()+1)%s.cfg.ResyncEvery == 0
	if forced || resyncDue {
		// Upgrade to a resync: the measurement followed by the full
		// post-correction snapshot, so a server that missed earlier
		// corrections lands exactly on this replica's state.
		msg.Kind = netsim.KindResync
		msg.Value = s.replica.AppendSnapshot(msg.Value)
		s.resyncs.Add(1)
		s.telResyncs.Inc()
		outcome = trace.OutcomeResync
		if forced {
			s.forcedResyncs.Add(1)
		}
	}
	if traced {
		msg.Trace = s.tr.NextTraceID()
		if heartbeatDue && dev <= s.cfg.Delta {
			outcome = trace.OutcomeHeartbeat
		}
		s.traceGate(outcome, msg.Trace, tick, dev)
	}
	if s.cfg.Stamp != nil {
		msg.Stamp = s.cfg.Stamp()
	}
	s.send(msg)
	s.run = 0
	s.sent.Add(1)
	s.telSent.Inc()
	if heartbeatDue && dev <= s.cfg.Delta {
		s.heartbeats.Add(1)
		s.telHeartbeats.Inc()
	}
	return true, nil
}

// traceGate records one gate-decision event. The deviation/δ pair is
// the ground-truth-vs-replica comparison the online auditor consumes.
func (s *Source) traceGate(outcome trace.Outcome, traceID uint64, tick int64, dev float64) {
	s.tr.Record(trace.Event{
		TraceID:  traceID,
		StreamID: s.cfg.StreamID,
		Tick:     tick,
		Stage:    trace.StageGate,
		Outcome:  outcome,
		Value:    dev,
		Aux:      s.cfg.Delta,
	})
}

// RequestResync asks the gate to ship a full-snapshot resync on the next
// Observe, bypassing the precision gate. The server's staleness watchdog
// calls it (via the feedback channel) when a stream has been silent past
// its deadline, and a reconnecting transport calls it after re-dialing,
// since corrections in flight when the connection died may be lost. Safe
// from any goroutine; requests coalesce (N requests before the next
// Observe produce one resync).
func (s *Source) RequestResync() {
	s.resyncRequested.Store(true)
	s.resyncRequests.Add(1)
	s.telResyncRequests.Inc()
}

// HandleFeedback processes a server→source protocol message: a resync
// request from the staleness watchdog, or a delta update from the budget
// allocator. It is shaped to plug directly into a netsim.Link as the
// feedback channel's receiver. Unknown kinds are ignored — feedback is
// advisory, and a lagging peer must not wedge the source.
func (s *Source) HandleFeedback(m *netsim.Message) {
	switch m.Kind {
	case netsim.KindResyncRequest:
		s.RequestResync()
	case netsim.KindDeltaUpdate:
		if len(m.Value) == 1 && m.Value[0] >= 0 {
			_ = s.SetDelta(m.Value[0])
		}
	}
}

// HeartbeatEvery returns the gate's heartbeat interval (0 = disabled) —
// the quantity staleness deadlines are derived from.
func (s *Source) HeartbeatEvery() int64 { return s.cfg.HeartbeatEvery }

// SetDelta changes the precision bound, e.g. on a delta-update from the
// server's budget allocator.
func (s *Source) SetDelta(delta float64) error {
	if delta < 0 {
		return fmt.Errorf("source %s: negative delta %g", s.cfg.StreamID, delta)
	}
	s.cfg.Delta = delta
	return nil
}

// Delta returns the current precision bound.
func (s *Source) Delta() float64 { return s.cfg.Delta }

// StreamID returns the stream identifier.
func (s *Source) StreamID() string { return s.cfg.StreamID }

// Stats returns a snapshot of the gate counters. Safe to call from any
// goroutine while Observe runs.
func (s *Source) Stats() Stats {
	// Ticks is the sum of the three outcome counters as loaded here, so
	// Sent+Suppressed <= Ticks holds under any interleaving.
	st := Stats{
		Sent:                   s.sent.Load(),
		Suppressed:             s.suppressed.Load(),
		Heartbeats:             s.heartbeats.Load(),
		Resyncs:                s.resyncs.Load(),
		ResyncRequests:         s.resyncRequests.Load(),
		ForcedResyncs:          s.forcedResyncs.Load(),
		MaxSuppressedDeviation: math.Float64frombits(s.maxSuppDevBits.Load()),
	}
	st.Ticks = st.Sent + st.Suppressed + s.failed.Load()
	return st
}

// Prediction returns what the server is currently predicting for this
// stream (the replica's view) — useful for diagnostics and tests.
func (s *Source) Prediction() []float64 { return s.replica.PredictInto(0, make([]float64, s.dim)) }
