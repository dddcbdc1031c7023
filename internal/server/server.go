// Package server implements the server half of the dual-predictor
// protocol: a registry of predictor replicas, one per stream, that answers
// point-in-time value queries with hard precision bounds while receiving
// only the corrections the sources' gates let through.
//
// The registry is lock-striped into shards (fnv-1a hash on the stream ID,
// one Mutex per shard), so operations on different streams proceed
// concurrently: per-stream replica state has no cross-stream coupling, and
// the shard lock is only ever held for the nanoseconds a tiny state update
// takes. Every operation takes its shard exclusively. A serial caller pays
// one uncontended lock per operation.
//
// Only a source's messages (Ingest, and their replay from the log) write
// a record or its replica, on either clock; a read writes nothing (view):
// ahead of the record it predicts from the replica's state vector,
// stepping x alone on a copy, and the answer archive and a δ change take
// the reader's tick in the same way. So the replicas a source and the
// server hold agree on the source's messages alone, never on who read in
// between.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kalmanstream/internal/mat"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wal"
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrUnknownStream reports an operation on an unregistered stream.
	ErrUnknownStream = errors.New("unknown stream")
	// ErrHistoryDisabled reports a historical query on a stream without
	// history enabled.
	ErrHistoryDisabled = errors.New("history not enabled")
	// ErrHistoryMiss reports a historical query for a tick that is not
	// retained (evicted or not yet settled).
	ErrHistoryMiss = errors.New("tick not retained in history")
	// ErrTickBehind reports a read at a tick a message has already moved
	// the record past: the replica no longer holds that tick's state.
	ErrTickBehind = errors.New("tick behind the record")
)

// DefaultShards is the shard count New uses: enough stripes that a
// many-core tick pipeline rarely contends, cheap enough that a
// single-stream harness run doesn't notice.
const DefaultShards = 16

// StreamInfo is a diagnostic snapshot of one registered stream.
type StreamInfo struct {
	ID    string
	Delta float64
	// Norm is the deviation norm the stream's gate uses; it defines what
	// the δ bound means geometrically.
	Norm source.Norm
	// Tick is the tick the snapshot is as of, plus one: ticks [0, Tick)
	// have been stepped, by the record or, for a read ahead of it, by the
	// prediction alone.
	Tick int64
	// LastCorrectionTick is the tick of the most recent correction, or
	// -1 before the first.
	LastCorrectionTick int64
	// Corrections is the number of corrections applied — what the source
	// sent and the link delivered. It is checkpointed with the replica.
	Corrections int64
	// Bytes is the encoded size of those same messages in the id form (the
	// form the log stores, whichever form the wire carried), summed — but
	// since this process registered or recovered the stream: it is not
	// checkpointed, so after a restart it covers replayed and new records
	// only while Corrections carries on from the checkpoint.
	Bytes int64
	// Suppressed counts the ticks before Tick that carried no correction
	// (those an ingest stepped the replica through, and, for a read ahead
	// of the record, those it predicts across) — the gate's own count on a
	// loss-free link — Duplicates the messages the dedupe guard dropped,
	// and StaleEpisodes the times the watchdog marked the stream stale, all
	// since this process registered or recovered the stream.
	Suppressed, Duplicates, StaleEpisodes int64
	// Staleness is Tick − 1 − LastCorrectionTick.
	Staleness int64
	// Stale reports whether the staleness watchdog currently has the
	// stream marked silent past its deadline.
	Stale bool
	// Prediction is the replica's estimate as of the snapshot's tick.
	Prediction []float64
}

// streamState is one stream's record: what every ingest and answer
// touches comes first, then the registration, watchdog deadlines, owner.
type streamState struct {
	// sh is the shard the record lives in, so a Ref reaches its lock
	// without hashing the id; dead marks a record Unregister or Reset
	// dropped, under that lock, so a stale Ref is refused.
	sh       *shard
	replica  predictor.Predictor
	dead     bool
	stale    bool // the watchdog has the stream marked silent (watchdog.go)
	norm     source.Norm
	tick     int64
	lastCorr int64
	delta    float64
	// lastValue holds the most recent correction's measurement and
	// lastValueTick the server tick at which it arrived. On that tick the
	// server answers with the measurement itself (error bound 0), since a
	// stateful replica's post-update estimate need not coincide with the
	// measurement; on later ticks the replica's prediction takes over
	// with the δ bound. A value of dimension ≤ 2 lives in lastBuf, the
	// record's own storage (setLastValue).
	lastValueTick int64
	lastValue     []float64
	lastBuf       [2]float64
	// corrections, bytes, suppressed and dups are the record's counts
	// (see StreamInfo); the registry holds only per-shard totals.
	corrections int64
	bytes       int64
	suppressed  int64
	dups        int64
	// lastTrace is the trace ID of the most recent applied correction,
	// linking subsequent query events back to the state they serve from.
	lastTrace uint64
	heard     int64    // when the stream last sent anything, in the clock's unit
	history   *history // when non-nil, answers settled past ticks (archive.go)
	id        string

	// spec and registerDelta preserve the original registration so the
	// durability layer can checkpoint a re-buildable description of the
	// replica (delta above may drift under budget management); spec is
	// the one copy every record registered with an equal spec shares.
	spec          *sharedSpec
	registerDelta float64
	// The rest of the staleness watchdog's state, in the clock's unit.
	// wdDeadline <= 0 means the watchdog is disarmed; wdLastReq is the
	// silence at which the last resync request was issued, so requests
	// repeat every deadline of continued silence; staleEpisodes counts the
	// stale marks; owner is the opaque push target the requests go to — a
	// connection, a feedback link — nil when there is none.
	wdDeadline    int64
	wdLastReq     int64
	staleEpisodes int64
	owner         any
}

// Ref is an opaque resolved reference to one stream record, returned by
// Adopt: IngestRef reaches the record through it with no hash, no map
// probe and no key compare. A Ref outlives its record harmlessly — once
// Unregister or Reset drops the record, IngestRef refuses the Ref with
// ErrUnknownStream.
type Ref struct{ st *streamState }

// Prefetch reads, without the lock, the record ref resolves and its
// replica, so a batch can pull both into cache a window ahead of their
// apply. It reads only fields set before the record was published (the
// record's replica, the replica's dimensions), which no later write
// moves, and it writes nothing.
func (r Ref) Prefetch() { r.st.replica.Dim() }

// shardTotals is one lock stripe's share of the registry totals (label
// shard). The handles live where the lock already is: they are bumped
// inside shard-lock holds the data path takes anyway, so two connections
// contend on a counter only when they already contend on its shard, and
// the registry's size does not depend on the number of streams.
type shardTotals struct {
	queries, sent, suppressed, dups *telemetry.Counter
	staleness                       *telemetry.Histogram
}

// shard is one lock stripe of the registry.
type shard struct {
	mu      sync.Mutex
	streams map[string]*streamState
	// order holds the same streams in registration order: the per-tick
	// loop walks this slice instead of ranging the map, which is both
	// cheaper and deterministic.
	order []*streamState
	// size mirrors len(streams) so Len reads it without
	// taking the lock (len of a map is not safe to read concurrently with
	// writes).
	size atomic.Int64
	// tel is nil unless the hosting server has a registry.
	tel *shardTotals
}

// Server hosts predictor replicas for any number of streams. All methods
// are safe for concurrent use; operations on streams in different shards
// never contend.
type Server struct {
	shards []*shard
	tr     *trace.Journal
	// stale counts the streams the watchdog has marked, kept where the
	// verdict is set and cleared (StaleCount).
	stale atomic.Int64

	// staleAfter is every new record's deadline (SetStaleAfter), and unit
	// the watchdog's unit in trace events' (1 for ticks, 1e-9 for ns → s).
	staleAfter int64
	unit       float64
	// onApply, when set, fires after every successfully applied message,
	// under the shard lock — the write-ahead log's append hook. See
	// SetApplyHook.
	onApply func(tick int64, m *netsim.Message)
	// onRegister, when set, fires before a new stream becomes visible,
	// under the shard lock — the log's registration hook. See
	// SetRegisterHook.
	onRegister func(rec wal.RegisterRecord) error
	// specs holds the one copy of each distinct spec the records share.
	specs specTable
}

// specTable interns the records' specs, so a record points at one shared
// copy of its spec instead of carrying 136 bytes, and builds a spec that
// streams share once: from the second record on, a record's replica is a
// clone of its entry's prototype. An entry lives while records hold it
// (Unregister and Reset release theirs), so the table never outgrows the
// population. Its lock nests inside a shard lock; Build runs outside it.
type specTable struct {
	mu sync.Mutex
	m  map[string]*sharedSpec
}

// sharedSpec is one interned spec, keyed by appendKey, and, while two or
// more records hold it, its prototype replica, never written: Clone only
// reads it. A spec one record holds keeps none, so a population of
// distinct specs costs what it did before the table built them.
type sharedSpec struct {
	predictor.Spec
	key   string
	proto predictor.Predictor // under specTable.mu
	refs  int                 // under specTable.mu
}

// appendKey appends spec's table key to b: its fields in binary, a float
// as its bits. Two specs Build accepts have equal keys exactly when their
// JSON, the bytes a register record logs, is equal (FuzzSpecKey): a float
// the JSON omits when zero keys -0 as 0, as the JSON spells both; a
// model's q and r, always spelled, keep their sign ("-0" is not "0").
// Build refuses a NaN, so no entry is keyed by one.
func appendKey(b []byte, spec predictor.Spec) []byte {
	omitted := func(b []byte, v float64) []byte {
		if v == 0 {
			v = 0 // and -0
		}
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	model := func(b []byte, ms predictor.ModelSpec) []byte {
		b = append(binary.AppendUvarint(b, uint64(len(ms.Kind))), ms.Kind...)
		b = binary.LittleEndian.AppendUint64(omitted(b, ms.Dt), math.Float64bits(ms.Q))
		return binary.AppendVarint(binary.LittleEndian.AppendUint64(b, math.Float64bits(ms.R)), int64(ms.Dim))
	}
	b = append(binary.AppendUvarint(b, uint64(len(spec.Kind))), spec.Kind...)
	b = binary.AppendVarint(binary.AppendVarint(b, int64(spec.Dim)), int64(spec.AdaptiveWindow))
	b = omitted(omitted(omitted(b, spec.Alpha), spec.Beta), spec.BankFloor)
	adaptive := byte(0)
	if spec.Adaptive {
		adaptive = 1
	}
	b = model(append(b, adaptive), spec.Model)
	for _, ms := range spec.Models {
		b = model(b, ms)
	}
	return b
}

// acquire takes a hold on the shared copy of spec and returns a replica
// for a new record: a clone of the entry's prototype when it has one,
// else a Build. The second holder's build becomes the prototype. A spec
// Build refuses is not interned.
func (t *specTable) acquire(spec predictor.Spec) (*sharedSpec, predictor.Predictor, error) {
	var buf [128]byte
	key := appendKey(buf[:0], spec)
	t.mu.Lock()
	sp := t.m[string(key)]
	if sp != nil && sp.proto != nil {
		sp.refs++
		proto := sp.proto
		t.mu.Unlock()
		return sp, proto.Clone(), nil
	}
	t.mu.Unlock()
	replica, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	var proto predictor.Predictor
	t.mu.Lock()
	switch sp = t.m[string(key)]; {
	case sp == nil:
		spec.Models = slices.Clone(spec.Models)
		sp = &sharedSpec{Spec: spec, key: string(key)}
		t.m[sp.key] = sp
	case sp.proto == nil:
		sp.proto, proto = replica, replica
	}
	sp.refs++
	t.mu.Unlock()
	if proto != nil {
		replica = proto.Clone()
	}
	return sp, replica, nil
}

func (t *specTable) release(sp *sharedSpec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch sp.refs--; sp.refs {
	case 0:
		delete(t.m, sp.key)
	case 1:
		sp.proto = nil
	}
}

// New returns an empty server with DefaultShards lock stripes.
func New() *Server { return NewSharded(DefaultShards) }

// NewSharded returns an empty server with n lock stripes (n < 1 means 1).
// More shards admit more concurrent per-stream operations; a serial
// deployment works identically with any shard count.
func NewSharded(n int) *Server {
	if n < 1 {
		n = 1
	}
	s := &Server{shards: make([]*shard, n), tr: trace.Default, unit: 1,
		specs: specTable{m: make(map[string]*sharedSpec)}}
	for i := range s.shards {
		s.shards[i] = &shard{streams: make(map[string]*streamState)}
	}
	return s
}

// fnv1a is the 32-bit FNV-1a hash of id, inlined so shard routing does
// not allocate (hash/fnv's New32a returns a heap handle).
func fnv1a[K string | []byte](id K) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// shardFor routes a stream ID to its lock stripe.
func shardFor[K string | []byte](s *Server, id K) *shard {
	return s.shards[fnv1a(id)%uint32(len(s.shards))]
}

// SetTelemetry attaches a registry, which from then on holds the totals
// over all streams — queries and answer staleness, corrections sent and
// suppressed, duplicates dropped — as one series per lock stripe. A
// per-stream number lives in the per-stream record and is read through
// Info and Infos. Call it before Register and before any concurrent use.
// The single-process evaluation harness leaves this unset; the wire server
// and cmd/kfserver always set it.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	for i, sh := range s.shards {
		n := strconv.Itoa(i)
		sh.tel = &shardTotals{
			queries:    reg.Counter("server_queries_total", "shard", n),
			sent:       reg.Counter("corrections_sent_total", "shard", n),
			suppressed: reg.Counter("corrections_suppressed_total", "shard", n),
			dups:       reg.Counter("wire_duplicates_dropped_total", "shard", n),
			staleness:  reg.Histogram("query_staleness_ticks", telemetry.StalenessBuckets, "shard", n),
		}
	}
}

// SetTrace attaches a trace journal; applies and point queries record
// lifecycle events on it when tracing is enabled (nil restores
// trace.Default). While the journal is disabled each operation pays a
// single atomic load. Call before concurrent use.
func (s *Server) SetTrace(j *trace.Journal) {
	if j == nil {
		j = trace.Default
	}
	s.tr = j
}

// Register creates the server-side replica for a stream. The spec and the
// initial δ must match the source's; in the wire protocol they are carried
// by the registration payload, so mismatch is impossible by construction.
func (s *Server) Register(id string, spec predictor.Spec, delta float64) error {
	return s.RegisterAt(id, spec, delta, source.NormInf, 0)
}

// RegisterAt is Register for a stream that joins the tick clock at tick
// (its replica steps none of [0, tick), and it counts as heard then) and
// whose gate uses norm. The norm is the geometry of the δ bound
// (per-component box for NormInf, Euclidean ball for NormL2), which
// spatial queries must respect, so the durability hook logs it too.
func (s *Server) RegisterAt(id string, spec predictor.Spec, delta float64, norm source.Norm, tick int64) error {
	_, err := s.register(id, spec, delta, norm, false, nil, tick, tick)
	return err
}

// Adopt is Register for a source on its own clock (a wire connection):
// owner is the opaque push target for the watchdog's resync requests and
// now the arrival time in the driver's nanoseconds. A reconnecting source
// announcing an identical registration adopts the existing replica — its
// advanced state survives the connection, which is what lets a reconnect
// resume mid-stream — and the announcement counts as traffic (the source
// is demonstrably alive, and a forced resync follows on its next
// correction). A different spec or δ is a conflict and is rejected. The
// returned Ref resolves the record for IngestRef.
func (s *Server) Adopt(id string, spec predictor.Spec, delta float64, owner any, now int64) (Ref, error) {
	st, err := s.register(id, spec, delta, source.NormInf, true, owner, 0, now)
	return Ref{st}, err
}

func (s *Server) register(id string, spec predictor.Spec, delta float64, norm source.Norm, adopt bool, owner any, tick, now int64) (*streamState, error) {
	if id == "" {
		return nil, fmt.Errorf("server: empty stream id")
	}
	if delta < 0 {
		return nil, fmt.Errorf("server: negative delta %g for %s", delta, id)
	}
	sh := shardFor(s, id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.streams[id]; ok {
		if !adopt {
			return nil, fmt.Errorf("server: stream %q already registered", id)
		}
		var buf [128]byte
		if string(appendKey(buf[:0], spec)) != st.spec.key || st.registerDelta != delta {
			return nil, fmt.Errorf("server: stream %q re-registered with a different spec or delta", id)
		}
		st.owner, st.heard, st.wdLastReq = owner, now, 0
		return st, nil
	}
	sp, replica, err := s.specs.acquire(spec)
	if err != nil {
		return nil, fmt.Errorf("server: building replica for %s: %w", id, err)
	}
	if s.onRegister != nil {
		if err := s.onRegister(wal.RegisterRecord{ID: id, Spec: spec, Delta: delta, Norm: int(norm)}); err != nil {
			s.specs.release(sp)
			return nil, fmt.Errorf("server: logging registration of %s: %w", id, err)
		}
	}
	st := &streamState{id: id, sh: sh, replica: replica, spec: sp, registerDelta: delta,
		delta: delta, norm: norm, tick: tick, lastCorr: -1, lastValueTick: -1, owner: owner, heard: now,
		wdDeadline: s.staleAfter}
	sh.streams[id] = st
	sh.order = append(sh.order, st)
	sh.size.Store(int64(len(sh.streams)))
	return st, nil
}

// Unregister removes a stream.
func (s *Server) Unregister(id string) error {
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if st.stale {
		s.stale.Add(-1)
	}
	st.dead = true
	s.specs.release(st.spec)
	delete(sh.streams, id)
	for i, st := range sh.order {
		if st.id == id {
			sh.order = append(sh.order[:i], sh.order[i+1:]...)
			break
		}
	}
	sh.size.Store(int64(len(sh.streams)))
	return nil
}

// stepTo is the one time update, under the shard lock: it rolls the
// replica forward in one call so that ticks [0, tick) have been stepped.
func (st *streamState) stepTo(tick int64) {
	if tick > st.tick {
		st.replica.StepN(tick - st.tick)
		st.tick = tick
	}
}

// view runs read on id's record as of tick, under the shard lock, handing
// it how many ticks ahead of the record that is: 0 for a negative tick or
// the record's own (ticks [0, tick] stepped). read writes nothing, so the
// record stays as it was. A tick a message has already moved the record
// past is refused with ErrTickBehind.
func view[K string | []byte](s *Server, id K, tick int64, read func(st *streamState, ahead int64) error) error {
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	ahead := tick + 1 - st.tick
	switch {
	case tick < 0:
		ahead = 0
	case ahead < 0:
		return fmt.Errorf("server: %w: tick %d of %q, which stands at tick %d", ErrTickBehind, tick, id, st.tick-1)
	}
	if err := checkAdvance(st, tick); err != nil {
		return err
	}
	return read(st, ahead)
}

// Apply, TickStream and Value alias the one ingest, step and serve bodies
// for the benchmark module alone (make lint). Apply is Ingest at time 0.
func (s *Server) Apply(m *netsim.Message) error {
	_, _, err := s.Ingest(m, 0, 0)
	return err
}

// TickStream steps a stream one tick past where it stands.
func (s *Server) TickStream(id string) error {
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	st.stepTo(st.tick + 1)
	return nil
}

// Value answers where the stream stands: a QueryAt that rolls nothing.
func (s *Server) Value(id string) ([]float64, float64, error) { return s.QueryAt(id, -1) }

// MaxAdvancePerMessage bounds how far a single correction may roll a
// replica forward (x and P each tick), or a read predict ahead of one
// (view; x alone, n² work a tick). Without it, one malicious or corrupted
// message or query with a huge tick would spin the server for an unbounded
// number of steps while holding the shard lock.
const MaxAdvancePerMessage = 10_000_000

// checkAdvance refuses a tick beyond MaxAdvancePerMessage; callers run it
// before touching any state. (tick − st.tick, not tick+1, so the largest
// int64 cannot wrap past the limit.)
func checkAdvance(st *streamState, tick int64) error {
	if steps := tick - st.tick; steps >= MaxAdvancePerMessage {
		return fmt.Errorf("server: tick %d would advance stream %q by more than %d steps",
			tick, st.id, int64(MaxAdvancePerMessage))
	}
	return nil
}

// Ingest applies a message, all in one shard-lock hold: the replica is
// first rolled forward so that ticks [0, m.Tick] and [0, at) have been
// stepped, and now is noted as the last time the stream was heard. On the
// wall clock at is 0 and now is in nanoseconds; on the tick clock at is
// the arrival tick plus one, so a delayed message lands where it arrived,
// and now is m.Tick+1. A message at or before the last applied tick is
// dropped and counted (applied false) and moves nothing: a reconnecting
// source may replay a tail the server already applied, a link may
// duplicate or reorder, and applying a correction twice would
// double-step the replica. recovered reports that the message cleared a
// stale verdict.
func (s *Server) Ingest(m *netsim.Message, at, now int64) (applied, recovered bool, err error) {
	sh, st, err := lock(s, m.StreamID)
	if err != nil {
		return false, false, err
	}
	defer sh.mu.Unlock()
	return s.ingestLocked(st, m, at, now)
}

// IngestRef is Ingest on the wall clock (at 0) for the record ref resolves
// (see Adopt): no hash, no map probe, no key compare. A Ref whose record
// was dropped is refused with ErrUnknownStream.
func (s *Server) IngestRef(ref Ref, m *netsim.Message, now int64) (applied, recovered bool, err error) {
	st := ref.st
	st.sh.mu.Lock()
	defer st.sh.mu.Unlock()
	if st.dead {
		return false, false, fmt.Errorf("server: %w: %q was dropped", ErrUnknownStream, st.id)
	}
	return s.ingestLocked(st, m, 0, now)
}

// ingestLocked is the one ingest body, under the record's shard write
// lock, however the record was found and on either clock. m.StreamID
// becomes the record's own id string first — no allocation — so the log,
// exemplars, trace events and error texts name the stream whichever way
// the message named it. The bound is checked on the last tick to step
// before one is added, so the largest m.Tick cannot wrap past it.
func (s *Server) ingestLocked(st *streamState, m *netsim.Message, at, now int64) (applied, recovered bool, err error) {
	m.StreamID = st.id
	sh := st.sh
	if m.Tick <= st.lastCorr {
		st.dups++
		if sh.tel != nil {
			sh.tel.dups.Inc()
		}
		return false, false, nil
	}
	last := max(m.Tick, at-1)
	if err := checkAdvance(st, last); err != nil {
		return false, false, err
	}
	recovered = st.stale
	if err := s.applyAt(sh, st, max(st.tick, last+1), m, true); err != nil {
		return false, false, err
	}
	if recovered {
		s.watchdogRecover(st, now)
	}
	st.heard = now
	return true, recovered, nil
}

// applyAt is the one apply body, under the shard lock: step the
// replica to tick, perform the message's state update, count it, and —
// live, as opposed to replayed from the log — fire the durability hook. A
// live message carrying a NaN or ±Inf is refused before anything moves:
// the filter would carry it into every later answer. A refused message
// never reaches the log; replay restores the log as written.
func (s *Server) applyAt(sh *shard, st *streamState, tick int64, m *netsim.Message, live bool) error {
	if live && !mat.VecIsFinite(m.Value) {
		return fmt.Errorf("server: %s %s at tick %d carries a non-finite value", m.StreamID, m.Kind, m.Tick)
	}
	steps := tick - st.tick
	st.stepTo(tick)
	value := m.Value
	switch m.Kind {
	case netsim.KindCorrection:
		if err := st.replica.Correct(m.Value); err != nil {
			return fmt.Errorf("server: correcting %s: %w", m.StreamID, err)
		}
	case netsim.KindResync:
		dim := st.replica.Dim()
		if len(m.Value) < dim {
			return fmt.Errorf("server: resync for %s has %d values, want ≥ %d", m.StreamID, len(m.Value), dim)
		}
		if err := st.replica.Restore(m.Value[dim:]); err != nil {
			return fmt.Errorf("server: restoring %s: %w", m.StreamID, err)
		}
		value = m.Value[:dim]
	case netsim.KindHeartbeat:
	default:
		return fmt.Errorf("server: unexpected message kind %s", m.Kind)
	}
	st.lastCorr = m.Tick
	if m.Kind != netsim.KindHeartbeat {
		st.corrections++
		st.bytes += int64(m.EncodedSize())
		st.setLastValue(value)
		st.lastValueTick = st.tick
		st.mark(st.tick - 1)
		// Remember the trace ID so later query events can point at the
		// correction they serve from. Untraced messages still record an
		// apply event when the journal is on, but leave lastTrace alone: a
		// traced query should keep pointing at the last traced correction
		// rather than lose its link.
		if m.Trace != 0 {
			st.lastTrace = m.Trace
		}
		if s.tr.Enabled() {
			var v float64
			if len(m.Value) > 0 {
				v = m.Value[0]
			}
			s.tr.Record(trace.Event{
				TraceID:  m.Trace,
				StreamID: st.id,
				Tick:     st.tick,
				Stage:    trace.StageApply,
				Outcome:  trace.OutcomeApplied,
				Value:    v,
				Aux:      float64(st.tick - m.Tick), // apply lag in ticks
			})
		}
		// The arrival tick carried a correction; the ticks rolled through
		// on the way there were suppressed by the source's gate.
		rolled := max(steps-1, 0)
		st.suppressed += rolled
		if sh.tel != nil {
			sh.tel.sent.Inc()
			if rolled > 0 {
				sh.tel.suppressed.Add(rolled)
			}
		}
	}
	if live && s.onApply != nil {
		s.onApply(st.tick, m)
	}
	return nil
}

// setLastValue keeps v as the last correction's measurement: in the
// record's own storage while it fits, so a small stream's answer reads no
// second object.
func (st *streamState) setLastValue(v []float64) {
	if st.lastValue == nil {
		st.lastValue = st.lastBuf[:0]
	}
	st.lastValue = append(st.lastValue[:0], v...)
}

// lock looks a stream up and returns it together with its shard, still
// locked; the caller must Unlock. An id given as bytes (a frame's) is
// looked up without building a string.
func lock[K string | []byte](s *Server, id K) (*shard, *streamState, error) {
	sh := shardFor(s, id)
	sh.mu.Lock()
	st, ok := sh.streams[string(id)]
	if !ok {
		sh.mu.Unlock()
		return nil, nil, fmt.Errorf("server: %w: %q", ErrUnknownStream, id)
	}
	return sh, st, nil
}

// QueryAt answers a point query as of tick in one shard-lock hold (view):
// the estimate and the absolute error bound the protocol guarantees on it
// — on a tick where a correction arrived, the shipped measurement itself
// with bound 0; on suppressed ticks, the replica's prediction with the
// stream's δ.
func (s *Server) QueryAt(id string, tick int64) ([]float64, float64, error) {
	a, err := Query(s, id, tick, nil)
	return a.Estimate, a.Bound, err
}

// Answer is a served point query: QueryAt's estimate and bound; ID, the
// record's own id string, so a caller that named the stream by bytes
// names it without building one; LastTrace, the trace ID of the last
// traced correction applied (0 when none) — the state the answer is
// served from; and Heard, when the stream last sent anything, in the
// clock's unit — what freshness needs to age the answer.
type Answer struct {
	ID        string
	Estimate  []float64
	Bound     float64
	LastTrace uint64
	Heard     int64
}

// Query is the one point-query body: QueryAt for an id given as a string
// or as bytes (a frame's, looked up under one shard lock with no string
// built), writing the estimate into dst's storage, grown when short — so
// a caller reusing its buffer allocates nothing.
func Query[K string | []byte](s *Server, id K, tick int64, dst []float64) (a Answer, err error) {
	err = view(s, id, tick, func(st *streamState, ahead int64) error {
		a = Answer{ID: st.id, LastTrace: st.lastTrace, Heard: st.heard}
		a.Estimate, a.Bound = s.serve(st, ahead, dst)
		return nil
	})
	return a, err
}

// serve answers ahead ticks past the stream's state into dst (answer) and
// records the query (the shard's totals and a trace event whose ID is the
// last applied correction's, tying the answer to the state it was
// computed from). Caller holds the shard lock.
func (s *Server) serve(st *streamState, ahead int64, dst []float64) (estimate []float64, bound float64) {
	if sh := st.sh; sh.tel != nil {
		sh.tel.queries.Inc()
		if stale := st.tick + ahead - 1 - st.lastCorr; stale >= 0 {
			sh.tel.staleness.Observe(float64(stale))
		}
	}
	estimate, bound = st.answer(ahead, dst)
	if s.tr.Enabled() {
		var v float64
		if len(estimate) > 0 {
			v = estimate[0]
		}
		s.tr.Record(trace.Event{
			TraceID:  st.lastTrace,
			StreamID: st.id,
			Tick:     st.tick + ahead,
			Stage:    trace.StageQuery,
			Outcome:  trace.OutcomeServed,
			Value:    v,
			Aux:      bound,
		})
	}
	return estimate, bound
}

// answer is the one point-answer body (QueryAt and PeekValue share it),
// ahead ticks past the record: the shipped measurement with bound 0 on the
// tick a correction arrived, the replica's prediction with the δ bound
// otherwise — written into dst's storage, grown when short.
func (st *streamState) answer(ahead int64, dst []float64) ([]float64, float64) {
	if ahead == 0 && st.lastValueTick == st.tick && st.lastValue != nil {
		return append(dst[:0], st.lastValue...), 0
	}
	dim := st.replica.Dim()
	return st.replica.PredictInto(ahead, slices.Grow(dst[:0], dim)[:dim]), st.delta
}

// PeekValue answers the same point query as QueryAt but records no
// telemetry and no trace events — the precision auditor's side channel,
// so auditing a tick is invisible to the observability it feeds.
func (s *Server) PeekValue(id string, tick int64) (estimate []float64, bound float64, err error) {
	err = view(s, id, tick, func(st *streamState, ahead int64) error {
		estimate, bound = st.answer(ahead, nil)
		return nil
	})
	return estimate, bound, err
}

// ValueDistribution answers a probabilistic point query as of tick (view,
// as QueryAt): the estimate together with the replica's own predictive
// standard deviation per component. Unlike the δ bound — a hard
// worst-case guarantee — the distribution supports confidence intervals
// ("95% interval"), at the price of being a model statement rather than a
// promise. Only predictors implementing predictor.Uncertainty (the Kalman
// family) support it. It is the one read that needs P ahead of the record:
// there it steps a clone, never the record's replica.
func (s *Server) ValueDistribution(id string, tick int64) (estimate, stddev []float64, err error) {
	err = view(s, id, tick, func(st *streamState, ahead int64) error {
		r := st.replica
		if _, ok := r.(predictor.Uncertainty); !ok {
			return fmt.Errorf("server: stream %q predictor (%s) has no predictive distribution",
				id, r.Name())
		}
		if ahead > 0 {
			r = r.Clone()
			r.StepN(ahead)
		}
		variance := r.(predictor.Uncertainty).PredictVariance()
		stddev = make([]float64, len(variance))
		for i, v := range variance {
			stddev[i] = math.Sqrt(v)
		}
		estimate = r.PredictInto(0, make([]float64, r.Dim()))
		return nil
	})
	return estimate, stddev, err
}

// Norm returns the stream's gate norm (see RegisterAt).
func (s *Server) Norm(id string) (source.Norm, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return 0, err
	}
	defer sh.mu.Unlock()
	return st.norm, nil
}

// Delta returns the stream's current precision bound.
func (s *Server) Delta(id string) (float64, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return 0, err
	}
	defer sh.mu.Unlock()
	return st.delta, nil
}

// SetDelta records a changed precision bound for the stream (paired with
// a delta-update message to the source) as of tick at, the reader's (-1,
// or any tick the record has passed, means where it stands): its archive
// answers with it from the tick after at on. The record does not move.
func (s *Server) SetDelta(id string, delta float64, at int64) error {
	if delta < 0 {
		return fmt.Errorf("server: negative delta %g for %s", delta, id)
	}
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	st.delta = delta
	st.mark(st.asOf(at))
	return nil
}

// info snapshots the record's plain fields (everything but Prediction);
// the caller holds the shard lock.
func (st *streamState) info() StreamInfo {
	return StreamInfo{
		ID:                 st.id,
		Delta:              st.delta,
		Norm:               st.norm,
		Tick:               st.tick,
		LastCorrectionTick: st.lastCorr,
		Corrections:        st.corrections,
		Bytes:              st.bytes,
		Suppressed:         st.suppressed,
		Duplicates:         st.dups,
		StaleEpisodes:      st.staleEpisodes,
		Staleness:          st.tick - 1 - st.lastCorr,
		Stale:              st.stale,
	}
}

// Info returns a diagnostic snapshot of one stream as of tick (view, as
// every read; -1 reads it where it stands).
func (s *Server) Info(id string, tick int64) (info StreamInfo, err error) {
	err = view(s, id, tick, func(st *streamState, ahead int64) error {
		info = st.info()
		info.Tick += ahead
		info.Suppressed += ahead
		info.Staleness += ahead
		info.Prediction = st.replica.PredictInto(ahead, make([]float64, st.replica.Dim()))
		return nil
	})
	return info, err
}

// Infos snapshots every stream, sorted by ID, without Prediction: each
// shard is walked once under its lock and no replica is asked to
// predict, so the whole-population surfaces (/debug/health's streams
// table) cost one allocation however many streams there are.
func (s *Server) Infos() []StreamInfo {
	out := make([]StreamInfo, 0, s.Len())
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, st := range sh.order {
			out = append(out, st.info())
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(out, func(a, b StreamInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// WalkCounts calls visit with every stream's correction count, encoded
// bytes and stale episodes (StreamInfo.Corrections, .Bytes and
// .StaleEpisodes), one shard at a time under that shard's lock and in
// no particular order: what a whole-population reader — the flight
// recorder's offender tables — pulls on demand so that neither the apply
// path nor the watchdog feeds anything. visit runs under the lock: it must
// be cheap, must not block and must not call back into the server.
func (s *Server) WalkCounts(visit func(id string, corrections, bytes, staleEpisodes int64)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, st := range sh.order {
			visit(st.id, st.corrections, st.bytes, st.staleEpisodes)
		}
		sh.mu.Unlock()
	}
}

// StreamIDs returns the registered stream identifiers in sorted order.
func (s *Server) StreamIDs() []string {
	ids := make([]string, 0, s.Len())
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.streams {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	slices.Sort(ids)
	return ids
}

// Len returns the number of registered streams.
func (s *Server) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += int(sh.size.Load())
	}
	return n
}
