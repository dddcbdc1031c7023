// Package core implements the public face of the library: a System that
// hosts the server-side replica cache, attaches precision-gated sources,
// answers bounded-error queries, and (optionally) runs a communication
// budget across all attached streams. The root package kalmanstream
// re-exports these types; see that package's documentation for the
// user-level overview.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/query"
	"kalmanstream/internal/resource"
	"kalmanstream/internal/server"
	"kalmanstream/internal/source"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// PredictorSpec describes the replicated prediction procedure for a
// stream (re-exported from the predictor package).
type PredictorSpec = predictor.Spec

// Norm selects the deviation norm for the precision gate.
type Norm = source.Norm

// Gate norms.
const (
	NormInf = source.NormInf
	NormL2  = source.NormL2
)

// Answer is a bounded-error query answer.
type Answer = query.Answer

// Interval is a guaranteed enclosure of a true value.
type Interval = query.Interval

// Tristate is the answer to a predicate over approximate values.
type Tristate = query.Tristate

// ProbAnswer is a probabilistic point answer (estimate ± confidence
// interval from the predictive distribution).
type ProbAnswer = query.ProbAnswer

// Tristate values.
const (
	False   = query.False
	Unknown = query.Unknown
	True    = query.True
)

// SourceStats summarizes a stream's gate decisions.
type SourceStats = source.Stats

// LinkStats summarizes traffic on a stream's uplink.
type LinkStats = netsim.Stats

// Convenience constructors for predictor specs.

// StaticCache returns the approximate-caching baseline: the server
// predicts the last shipped value.
func StaticCache(dim int) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindStatic, Dim: dim}
}

// DeadReckoning returns linear extrapolation from the last two shipped
// values.
func DeadReckoning(dim int) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindDeadReckoning, Dim: dim}
}

// EWMA returns an exponentially-weighted-moving-average predictor.
func EWMA(dim int, alpha float64) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindEWMA, Dim: dim, Alpha: alpha}
}

// Holt returns a double-exponential-smoothing predictor (level + trend)
// with level factor alpha and trend factor beta, both in (0, 1].
func Holt(dim int, alpha, beta float64) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindHolt, Dim: dim, Alpha: alpha, Beta: beta}
}

// KalmanRandomWalk returns a Kalman predictor with random-walk dynamics:
// the right model when successive values differ by unpredictable steps.
func KalmanRandomWalk(q, r float64) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: q, R: r}}
}

// KalmanConstantVelocity returns a Kalman predictor that tracks a level
// and its trend — the workhorse model for drifting or smoothly varying
// streams.
func KalmanConstantVelocity(q, r float64) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: q, R: r}}
}

// KalmanConstantAcceleration returns a third-order kinematic Kalman
// predictor.
func KalmanConstantAcceleration(q, r float64) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantAcceleration, Q: q, R: r}}
}

// KalmanConstantVelocity2D returns the planar moving-object model
// (state x, y, vx, vy; observations x, y).
func KalmanConstantVelocity2D(q, r float64) PredictorSpec {
	return PredictorSpec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity2D, Q: q, R: r}}
}

// Adaptive turns on innovation-driven noise adaptation for a Kalman spec.
func Adaptive(spec PredictorSpec) PredictorSpec {
	spec.Adaptive = true
	return spec
}

// KalmanBank combines several Kalman specs into a multi-model bank that
// re-weights its hypotheses online by predictive likelihood — the default
// choice when a stream's dynamics are unknown or change over time. Every
// argument must be a Kalman spec (as returned by the Kalman* constructors)
// with the same observation dimension.
func KalmanBank(models ...PredictorSpec) PredictorSpec {
	specs := make([]predictor.ModelSpec, len(models))
	for i, m := range models {
		specs[i] = m.Model
	}
	return PredictorSpec{Kind: predictor.KindKalmanBank, Models: specs}
}

// StreamConfig configures one attached stream.
type StreamConfig struct {
	// ID identifies the stream; must be unique within the system.
	ID string
	// Predictor is the replicated prediction procedure.
	Predictor PredictorSpec
	// Delta is the precision bound δ.
	Delta float64
	// DeviationNorm selects the gate norm (default NormInf).
	DeviationNorm Norm
	// HeartbeatEvery bounds staleness (0 = no heartbeats).
	HeartbeatEvery int64
	// ResyncEvery upgrades every Nth correction to a full-snapshot
	// resync, healing replica divergence on lossy links (0 = never).
	ResyncEvery int64
	// Weight is the stream's importance under budget management
	// (default 1).
	Weight float64
	// MinDelta / MaxDelta clamp budget-managed δ (0 = unclamped).
	MinDelta, MaxDelta float64
	// LinkDelayTicks and LinkDropProb optionally impair the uplink for
	// fault-injection experiments. With impairments the per-tick bound
	// becomes best-effort until the next correction lands.
	LinkDelayTicks int
	LinkDropProb   float64
	LinkSeed       int64
	// WatchdogDeadline arms the server-side staleness watchdog: a stream
	// silent for more than this many ticks is marked stale and asked to
	// resynchronize over the feedback channel. 0 derives the deadline
	// from the heartbeat interval (2 × HeartbeatEvery) when heartbeats
	// are enabled, and leaves the watchdog off otherwise; a negative
	// value forces it off.
	WatchdogDeadline int64
	// FeedbackDropProb and FeedbackSeed impair the server→source
	// feedback link the watchdog's resync requests travel on. The
	// watchdog re-requests every deadline's worth of continued silence,
	// so a lossy feedback channel delays recovery rather than defeating
	// it.
	FeedbackDropProb float64
	FeedbackSeed     int64
}

// SystemConfig configures a System.
type SystemConfig struct {
	// Budget enables budget management when positive: the total
	// correction traffic target in messages per tick across all streams.
	// The coordinator is ticked by Advance for the tick that just
	// settled, so an allocation window of AllocPeriod ticks closes in the
	// Advance after its last tick's Observes.
	BudgetPerTick float64
	// Allocator picks the budget allocator: "uniform", "fair-share",
	// "water-filling" (default), or "aimd".
	Allocator string
	// AllocPeriod is the reallocation interval in ticks (default 200).
	AllocPeriod int64
	// Trace attaches a lifecycle trace journal to every layer — gate,
	// link, replica apply, query serve. Nil means trace.Default. While
	// the journal is disabled (the default) each operation pays one
	// atomic load; enable with journal.SetEnabled(true).
	Trace *trace.Journal
	// Audit enables the online precision auditor: every Observe compares
	// the ground-truth measurement against the answer the server would
	// serve that tick, counting δ violations (possible only under link
	// loss or delay). Costs one extra point query per observation.
	Audit bool
	// Telemetry receives the auditor's counters and histograms when
	// Audit is set; nil means telemetry.Default.
	Telemetry *telemetry.Registry
	// TelemetryHistory, when non-nil, records every series of the
	// registry it was built over once per Advance (Telemetry's, for this
	// system's own: streams_stale is set from the watchdog's verdicts just
	// before), and then Health, bound to its WindowTicks-wide tier, is
	// ticked: alerts share the system clock, which keeps chaos and test
	// runs deterministic. Health without it is an error. This is the
	// metrics trajectory; EnableHistory's answer archive is the data one.
	Health           *health.Monitor
	TelemetryHistory *history.Store
	// Diag, when non-nil, arms the flight recorder (NodeConfig.Diag); it
	// leaves the tick pipeline's performance and results untouched.
	Diag *diag.Recorder
	// WALDir enables the durability layer: every registration and applied
	// message is appended to a write-ahead log in this directory (recovered
	// at construction) and synced at each tick boundary, so the server half
	// of the system can be killed and rebuilt mid-run
	// (System.RestartServer) with byte-identical state. Empty leaves
	// durability off.
	WALDir string
	// CheckpointEveryTicks writes a predictor-snapshot checkpoint (and
	// prunes the covered log prefix) every N ticks during Advance
	// (0 = never; CheckpointWAL can still be called explicitly).
	CheckpointEveryTicks int64
	// Freshness arms end-to-end latency spans inside the simulation:
	// every shipped message is stamped at the gate on a deterministic
	// virtual clock (tick × FreshnessTickPeriod) and the span closes at
	// replica apply, in wire_e2e_latency_seconds on Telemetry with trace
	// and stream exemplars — so a chaos link delay of d ticks is an exact,
	// reproducible latency of about d ms.
	Freshness bool
}

// FreshnessTickPeriod is the virtual duration of one system tick under
// SystemConfig.Freshness: 1ms, so a link delay of d ticks reads as a
// latency on the order of d milliseconds — squarely inside
// telemetry.LatencyBuckets and well past DefaultFreshnessP99Bound for
// the delay magnitudes chaos injects.
const FreshnessTickPeriod = time.Millisecond

// System is a stream resource manager: the protocol node (the server-side
// replica cache and everything that hangs off it) plus the attached
// sources and their netsim links, driven by a shared tick clock. The
// driving protocol is one Advance per tick followed by that tick's Observe
// calls; Advance and Attach must come from a single goroutine, while
// Observe (on distinct streams), queries, and Subscribe may run
// concurrently between Advances — the replica cache is lock-striped and
// all counters are atomic. Replicas advance lazily, as under the wire
// server: a delivery rolls the stream to its arrival tick, and a read at
// the current tick steps a borrowed replica there and moves nothing.
type System struct {
	node    *Node
	handles map[string]*StreamHandle
	// order holds handles in attach order, the order links tick in.
	order []*StreamHandle
	tick  atomic.Int64
	// arrival is the tick a link delivery lands at, the one being observed:
	// Advance moves it before the links deliver, and tick (the clock they
	// are stamped and aged on) after.
	arrival atomic.Int64
	// stamp is the virtual clock sources stamp with under
	// SystemConfig.Freshness (nil without it).
	stamp freshness.Clock
}

// Predicate is a continuous range condition on a stream.
type Predicate = query.Predicate

// Event reports a predicate's truth-state transition.
type Event = query.Event

// NewSystem constructs a System: its node, on the tick clock.
func NewSystem(cfg SystemConfig) (*System, error) {
	node, err := NewNode(NodeConfig{
		Telemetry: cfg.Telemetry, Trace: cfg.Trace, Audit: cfg.Audit, Freshness: cfg.Freshness,
		History: cfg.TelemetryHistory, HistoryEvery: 1, Health: cfg.Health, Diag: cfg.Diag,
		WALDir: cfg.WALDir, CheckpointEvery: cfg.CheckpointEveryTicks,
		BudgetPerTick: cfg.BudgetPerTick, Allocator: cfg.Allocator, AllocPeriod: cfg.AllocPeriod,
	})
	if err != nil {
		return nil, err
	}
	s := &System{node: node, handles: make(map[string]*StreamHandle)}
	node.tick = &s.tick
	if cfg.Freshness {
		s.stamp = freshness.TickClock(&s.tick, FreshnessTickPeriod)
	}
	return s, nil
}

// StreamHandle is the source-side handle for one attached stream.
type StreamHandle struct {
	sys  *System
	src  *source.Source
	link *netsim.Link
	// fb is the server→source feedback link (resync requests), the
	// stream's owner in the server record; nil when the watchdog is off.
	fb   *netsim.Link
	norm Norm // gate norm, reused by the precision auditor
	// wdDeadline remembers the armed watchdog deadline (0 = off) and
	// histCap the answer archive's capacity (0 = off) so a server restart
	// can re-arm them — both are volatile server state.
	wdDeadline int64
	histCap    int
}

// Attach registers a stream, joining at the current tick, and returns its
// source-side handle. With a write-ahead log the registration, gate norm
// included, is logged before the stream becomes visible.
func (s *System) Attach(cfg StreamConfig) (*StreamHandle, error) {
	n := s.node
	if err := n.srv.RegisterAt(cfg.ID, cfg.Predictor, cfg.Delta, cfg.DeviationNorm, s.tick.Load()); err != nil {
		return nil, err
	}
	// recv is the terminal receiver: a roll to the arrival tick, the one
	// ingest, and an applied message's latency span. A delivery failure is
	// a protocol bug, surfaced by panic rather than corrupting the replica.
	recv := func(m *netsim.Message) {
		err := n.srv.Roll(m.StreamID, s.arrival.Load())
		applied := false
		if err == nil {
			applied, _, err = n.srv.Ingest(m, m.Tick+1)
		}
		if err != nil {
			panic(fmt.Sprintf("core: replica apply failed: %v", err))
		}
		if applied && n.fresh != nil && m.Stamp != 0 && m.Kind != netsim.KindHeartbeat {
			// Close the gate→apply span on the same virtual clock the
			// stamp was read from: a delayed link shows up as exactly its
			// delay, deterministically.
			n.fresh.RecordE2E(freshness.E2ESeconds(m.Stamp, s.stamp(), 0), m.Trace, m.StreamID)
		}
		// The replica copied what it keeps; recycle the pooled message.
		netsim.PutMessage(m)
	}
	link := netsim.NewLink(recv, netsim.LinkConfig{
		DelayTicks: cfg.LinkDelayTicks,
		DropProb:   cfg.LinkDropProb,
		Seed:       cfg.LinkSeed,
		Trace:      n.tr,
	})
	src, err := source.New(source.Config{
		StreamID:       cfg.ID,
		Spec:           cfg.Predictor,
		Delta:          cfg.Delta,
		DeviationNorm:  cfg.DeviationNorm,
		HeartbeatEvery: cfg.HeartbeatEvery,
		ResyncEvery:    cfg.ResyncEvery,
		Trace:          n.tr,
		Stamp:          s.stamp,
	}, link.Send)
	if err != nil {
		_ = n.srv.Unregister(cfg.ID)
		return nil, err
	}
	h := &StreamHandle{sys: s, src: src, link: link, norm: cfg.DeviationNorm}
	// Arm the staleness watchdog: explicit deadline wins; otherwise it is
	// derived from the gate's heartbeat interval (twice HeartbeatEvery,
	// so one lost heartbeat never trips it). Without heartbeats a silent
	// stream is indistinguishable from a perfectly predicted one, so
	// there is nothing sound to derive and the watchdog stays off.
	deadline := cfg.WatchdogDeadline
	if deadline == 0 && cfg.HeartbeatEvery > 0 {
		deadline = 2 * cfg.HeartbeatEvery
	}
	if deadline > 0 {
		h.fb = netsim.NewLink(src.HandleFeedback, netsim.LinkConfig{
			DropProb: cfg.FeedbackDropProb,
			Seed:     cfg.FeedbackSeed,
			Name:     "feedback",
			Trace:    n.tr,
		})
		if err := n.srv.SetWatchdog(cfg.ID, deadline, h.fb); err != nil {
			_ = n.srv.Unregister(cfg.ID)
			return nil, err
		}
		h.wdDeadline = deadline
	}
	if n.coord != nil {
		if err := n.coord.Manage(src, resource.ManagedOptions{
			Weight:   cfg.Weight,
			MinDelta: cfg.MinDelta,
			MaxDelta: cfg.MaxDelta,
		}); err != nil {
			_ = n.srv.Unregister(cfg.ID)
			return nil, err
		}
	}
	s.handles[cfg.ID] = h
	s.order = append(s.order, h)
	return h, nil
}

// Advance moves the system clock one tick, in one fixed order: the log's
// group commit (everything applied since the last Advance — the previous
// tick's link deliveries and Observe corrections — becomes durable), then
// subscriptions fire and the budget coordinator is ticked for the tick
// that just settled (so the first Advance does neither, and a run's last
// tick is settled by one more Advance after its Observes), the watchdog
// scans for silence at the new tick and sends the resync requests it owes
// on the streams' feedback links, delayed messages mature and land on the
// new tick, the clock moves, and the node's duties run on the new tick
// (Node.Tick: checkpoint cadence, streams_stale, store, monitor). Call
// once per tick, before that tick's Observe calls.
func (s *System) Advance() error {
	t := s.tick.Load()
	if err := s.node.settle(t); err != nil {
		return err
	}
	for _, f := range s.node.srv.ScanSilent(t + 1) {
		if fb, ok := f.Owner.(*netsim.Link); ok {
			fb.Send(&netsim.Message{Kind: netsim.KindResyncRequest, StreamID: f.ID, Tick: t + 1})
		}
	}
	s.arrival.Store(t)
	for _, h := range s.order {
		h.link.Tick()
		if h.fb != nil {
			h.fb.Tick()
		}
	}
	s.tick.Add(1)
	// Advance runs with no concurrent Observes (the driving protocol), so
	// a checkpoint's captured states and sequence agree.
	_, err := s.node.Tick(t + 1)
	return err
}

// AllocRounds returns the number of budget reallocations performed (0
// without budget management).
func (s *System) AllocRounds() int64 {
	if s.node.coord == nil {
		return 0
	}
	return s.node.coord.Rounds()
}

// Tick returns the current clock value (number of Advance calls).
func (s *System) Tick() int64 { return s.tick.Load() }

// Observe feeds one measurement for the current tick through the
// stream's precision gate, reporting whether a correction was sent. With
// auditing enabled it then compares the ground truth against the answer
// the server serves this tick, so δ violations (replica divergence under
// link loss or delay) are counted the moment they become observable.
func (h *StreamHandle) Observe(value []float64) (sent bool, err error) {
	tick := h.sys.tick.Load() - 1
	sent, err = h.src.Observe(tick, value)
	if err != nil || h.sys.node.auditor == nil {
		return sent, err
	}
	est, bound, aerr := h.sys.node.srv.PeekValue(h.src.StreamID(), tick)
	if aerr != nil {
		return sent, aerr
	}
	h.sys.node.auditor.Check(h.src.StreamID(), tick, h.norm.Deviation(value, est), bound, !sent)
	return sent, nil
}

// Delta returns the stream's current precision bound.
func (h *StreamHandle) Delta() float64 { return h.src.Delta() }

// SetDelta changes the stream's precision bound at both endpoints.
func (h *StreamHandle) SetDelta(delta float64) error {
	if err := h.src.SetDelta(delta); err != nil {
		return err
	}
	if err := h.sys.roll(h.src.StreamID()); err != nil {
		return err
	}
	return h.sys.node.srv.SetDelta(h.src.StreamID(), delta)
}

// Stats returns the gate counters for the stream.
func (h *StreamHandle) Stats() SourceStats { return h.src.Stats() }

// LinkStats returns the uplink traffic counters for the stream.
func (h *StreamHandle) LinkStats() LinkStats { return h.link.Stats() }

// FeedbackStats returns the feedback-link traffic counters (zero when
// the watchdog is off — no feedback link exists).
func (h *StreamHandle) FeedbackStats() LinkStats {
	if h.fb == nil {
		return LinkStats{}
	}
	return h.fb.Stats()
}

// Link returns the stream's uplink, exposed so fault injectors (the
// chaos harness) can impair it mid-run. Call its setters only between
// the system's Advance/Observe steps.
func (h *StreamHandle) Link() *netsim.Link { return h.link }

// FeedbackLink returns the server→source feedback link, or nil when the
// watchdog is off. Same access contract as Link.
func (h *StreamHandle) FeedbackLink() *netsim.Link { return h.fb }

// Stale reports whether the server's staleness watchdog currently has
// this stream marked silent past its deadline.
func (h *StreamHandle) Stale() bool {
	info, err := h.sys.Info(h.src.StreamID())
	return err == nil && info.Stale
}

// ID returns the stream identifier.
func (h *StreamHandle) ID() string { return h.src.StreamID() }

// Prediction returns the source's view of what the server is predicting
// for this stream. On an unimpaired link it matches the server exactly;
// under loss or delay the difference is the current replica divergence.
func (h *StreamHandle) Prediction() []float64 { return h.src.Prediction() }

// Value answers a bounded point query for component 0 of a stream.
func (s *System) Value(id string) (Answer, error) { return s.node.eng.Value(id, 0) }

// ValueAt answers a bounded point query for a specific component.
func (s *System) ValueAt(id string, component int) (Answer, error) {
	return s.node.eng.Value(id, component)
}

// Vector answers the full estimate vector and bound for a stream.
func (s *System) Vector(id string) ([]float64, float64, error) {
	return s.node.srv.QueryAt(id, s.node.readTick())
}

// Sum answers Σ over streams with a composed bound.
func (s *System) Sum(ids []string) (Answer, error) { return s.node.eng.Sum(ids, 0) }

// Average answers the mean over streams with a composed bound.
func (s *System) Average(ids []string) (Answer, error) { return s.node.eng.Average(ids, 0) }

// Min answers the minimum with a guaranteed enclosure.
func (s *System) Min(ids []string) (Answer, Interval, error) { return s.node.eng.Min(ids, 0) }

// Max answers the maximum with a guaranteed enclosure.
func (s *System) Max(ids []string) (Answer, Interval, error) { return s.node.eng.Max(ids, 0) }

// Within answers a range predicate with certainty tracking.
func (s *System) Within(id string, lo, hi float64) (Tristate, error) {
	return s.node.eng.Within(id, 0, lo, hi)
}

// ProbValue answers a probabilistic point query at the given confidence
// level (e.g. 0.95) from the replica's predictive distribution. Requires
// a Kalman-family predictor.
func (s *System) ProbValue(id string, confidence float64) (ProbAnswer, error) {
	return s.node.eng.ProbValue(id, 0, confidence)
}

// WeightedSum answers Σ wᵢ·vᵢ over streams with the composed bound
// Σ |wᵢ|·δᵢ.
func (s *System) WeightedSum(ids []string, weights []float64) (Answer, error) {
	return s.node.eng.WeightedSum(ids, weights, 0)
}

// Distance answers a 2-D L2-gated stream's Euclidean distance to a point
// with a guaranteed bound.
func (s *System) Distance(id string, px, py float64) (Answer, error) {
	return s.node.eng.Distance(id, px, py)
}

// WithinRadius answers a geofence predicate on a 2-D L2-gated stream;
// True and False are certain.
func (s *System) WithinRadius(id string, px, py, radius float64) (Tristate, error) {
	return s.node.eng.WithinRadius(id, px, py, radius)
}

// Separation answers the distance between two 2-D L2-gated streams with
// the composed bound.
func (s *System) Separation(idA, idB string) (Answer, error) {
	return s.node.eng.Separation(idA, idB)
}

// CloserThan answers a proximity predicate between two 2-D L2-gated
// streams; True and False are certain.
func (s *System) CloserThan(idA, idB string, distance float64) (Tristate, error) {
	return s.node.eng.CloserThan(idA, idB, distance)
}

// Window returns a sliding window over a stream component for windowed
// aggregates; call its Sample method once per tick.
func (s *System) Window(id string, component, size int) (*query.Window, error) {
	return s.node.eng.NewWindow(id, component, size)
}

// Subscribe registers a continuous predicate on component 0 of a stream;
// fn fires on every truth-state transition, evaluated automatically as
// each tick settles (during the next Advance). Notifications carrying
// True or False are certain; Unknown marks a δ-straddled range edge.
func (s *System) Subscribe(id string, lo, hi float64, fn func(Event)) (int, error) {
	return s.node.subs.Subscribe(Predicate{StreamID: id, Lo: lo, Hi: hi}, fn)
}

// Unsubscribe removes a subscription.
func (s *System) Unsubscribe(subID int) error { return s.node.subs.Unsubscribe(subID) }

// EnableHistory starts archiving a stream's settled per-tick answers in a
// ring of the given capacity, enabling historical queries.
func (s *System) EnableHistory(id string, capacity int) error {
	if err := s.roll(id); err != nil {
		return err
	}
	if err := s.node.srv.EnableHistory(id, capacity); err != nil {
		return err
	}
	s.handles[id].histCap = capacity
	return nil
}

// HistoryAt returns the archived answer for a past tick.
func (s *System) HistoryAt(id string, tick int64) (server.HistoryEntry, error) {
	if err := s.roll(id); err != nil {
		return server.HistoryEntry{}, err
	}
	return s.node.srv.HistoryAt(id, tick)
}

// HistoryAverage answers the mean over past ticks [from, to] with the
// composed bound.
func (s *System) HistoryAverage(id string, from, to int64) (Answer, error) {
	return s.node.eng.HistoryAverage(id, 0, from, to)
}

// HistoryExtremes returns guaranteed enclosures of the true minimum and
// maximum over past ticks [from, to].
func (s *System) HistoryExtremes(id string, from, to int64) (minIv, maxIv Interval, err error) {
	return s.node.eng.HistoryExtremes(id, 0, from, to)
}

// StreamIDs lists attached streams in sorted order.
func (s *System) StreamIDs() []string { return s.node.srv.StreamIDs() }

// Info returns the server-side diagnostic snapshot for a stream.
func (s *System) Info(id string) (server.StreamInfo, error) {
	return s.node.srv.Info(id, s.node.readTick())
}

// roll brings a stream to the current tick (server.Roll).
func (s *System) roll(id string) error { return s.node.srv.Roll(id, s.node.readTick()) }

// Auditor returns the online precision auditor, or nil when SystemConfig
// .Audit was not set.
func (s *System) Auditor() *trace.Auditor { return s.node.auditor }

// Freshness returns the latency recorder, or nil when
// SystemConfig.Freshness was not set.
func (s *System) Freshness() *freshness.Recorder { return s.node.fresh }

// TraceJournal returns the journal every layer of this system records
// lifecycle events on (trace.Default unless SystemConfig.Trace was set).
func (s *System) TraceJournal() *trace.Journal { return s.node.tr }

// TotalMessages sums correction traffic across all uplinks.
func (s *System) TotalMessages() int64 {
	var n int64
	for _, h := range s.order {
		n += h.link.Stats().Messages
	}
	return n
}

// TotalBytes sums correction bytes across all uplinks.
func (s *System) TotalBytes() int64 {
	var n int64
	for _, h := range s.order {
		n += h.link.Stats().Bytes
	}
	return n
}
