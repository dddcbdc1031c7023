// Package trace is the end-to-end lifecycle journal for the
// dual-predictor protocol: a low-overhead, sharded ring buffer of typed
// events that follows a correction from the source's gate decision,
// across the (simulated or TCP) link, into the server's replica, and out
// through the queries it answers. Events for one correction share a
// trace ID that is carried in-band on netsim.Message and through the
// wire frame format, so a distributed run can be stitched back together
// on the server (see /debug/trace on cmd/kfserver and `streamkf trace`).
//
// The journal is designed to cost almost nothing when disabled: every
// instrumented call site guards with a single atomic load (Enabled) and
// records nothing, allocates nothing, and takes no locks on the fast
// path. When enabled, recording an event is one mutex-protected copy
// into a ring — no allocation once the ring exists — plus one wall-clock
// read. A shard's ring is made by the first event that lands in it, so a
// journal that never records holds only its shard headers; rings
// overwrite their oldest events, so memory is strictly bounded no matter
// how long the system runs.
//
// The package also hosts the online precision auditor (audit.go), which
// turns gate events into a runtime proof obligation: realized error on
// suppressed ticks must stay within δ.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies where in the correction lifecycle an event occurred.
type Stage uint8

// Lifecycle stages, in pipeline order.
const (
	// StageGate is the source-side precision-gate decision for one tick.
	StageGate Stage = iota + 1
	// StageLink is transit over the link: delivery, queueing, or drop.
	StageLink
	// StageApply is the server-side replica update.
	StageApply
	// StageQuery is a query answered from the replica.
	StageQuery
	// StageAudit is an online precision-audit verdict.
	StageAudit
	// StageWatchdog is a server-side staleness-watchdog transition.
	StageWatchdog
)

func (s Stage) String() string {
	switch s {
	case StageGate:
		return "gate"
	case StageLink:
		return "link"
	case StageApply:
		return "apply"
	case StageQuery:
		return "query"
	case StageAudit:
		return "audit"
	case StageWatchdog:
		return "watchdog"
	default:
		return "unknown"
	}
}

// Outcome is what happened at a stage.
type Outcome uint8

// Outcomes.
const (
	// OutcomeSent: the gate shipped a correction (deviation exceeded δ).
	OutcomeSent Outcome = iota + 1
	// OutcomeSuppressed: the gate withheld the tick (deviation ≤ δ).
	OutcomeSuppressed
	// OutcomeHeartbeat: a correction forced by the heartbeat policy.
	OutcomeHeartbeat
	// OutcomeResync: a correction upgraded to a full-snapshot resync.
	OutcomeResync
	// OutcomeEnqueued: the link queued the message behind a delay.
	OutcomeEnqueued
	// OutcomeDelivered: the link handed the message to its receiver.
	OutcomeDelivered
	// OutcomeDropped: the link lost the message.
	OutcomeDropped
	// OutcomeApplied: the server incorporated the correction.
	OutcomeApplied
	// OutcomeServed: a query was answered.
	OutcomeServed
	// OutcomeViolation: the auditor caught realized error above δ on a
	// suppressed tick.
	OutcomeViolation
	// OutcomeStale: the watchdog marked a silent stream stale.
	OutcomeStale
	// OutcomeResyncRequested: the watchdog asked the source to
	// resynchronize via the feedback channel.
	OutcomeResyncRequested
	// OutcomeRecovered: a correction arrived for a stale stream, clearing
	// the watchdog.
	OutcomeRecovered
)

func (o Outcome) String() string {
	switch o {
	case OutcomeSent:
		return "sent"
	case OutcomeSuppressed:
		return "suppressed"
	case OutcomeHeartbeat:
		return "heartbeat"
	case OutcomeResync:
		return "resync"
	case OutcomeEnqueued:
		return "enqueued"
	case OutcomeDelivered:
		return "delivered"
	case OutcomeDropped:
		return "dropped"
	case OutcomeApplied:
		return "applied"
	case OutcomeServed:
		return "served"
	case OutcomeViolation:
		return "violation"
	case OutcomeStale:
		return "stale"
	case OutcomeResyncRequested:
		return "resync-requested"
	case OutcomeRecovered:
		return "recovered"
	default:
		return "unknown"
	}
}

// Event is one journal entry. The struct is a flat value (no pointers
// beyond the StreamID string header) so recording is a copy into a ring
// slot.
type Event struct {
	// Seq is the journal-assigned global order (monotone per journal).
	Seq uint64 `json:"seq"`
	// TraceID links every event caused by one shipped correction; 0 for
	// events with no correction in flight (suppressed gate ticks).
	TraceID uint64 `json:"trace,omitempty"`
	// StreamID names the stream.
	StreamID string `json:"stream"`
	// Tick is the protocol tick the event belongs to.
	Tick int64 `json:"tick"`
	// Stage and Outcome classify the event.
	Stage   Stage   `json:"stage"`
	Outcome Outcome `json:"outcome"`
	// Wall is the wall-clock time in Unix nanoseconds.
	Wall int64 `json:"wall"`
	// Value is the stage's primary measurement: gate deviation, link
	// bytes, applied value (component 0), query estimate, audit error.
	Value float64 `json:"value"`
	// Aux is the stage's secondary measurement: δ at the gate and audit,
	// delay ticks on the link, query bound.
	Aux float64 `json:"aux"`
}

// shard is one lock stripe of the journal: a fixed ring, nil until the
// first event lands in the shard, plus the count of events ever written
// to it.
type shard struct {
	mu    sync.Mutex
	ring  []Event
	count uint64
}

// retained is how many events the ring holds; a nil ring holds none.
// The caller holds sh.mu.
func (sh *shard) retained() uint64 { return min(sh.count, uint64(len(sh.ring))) }

// Journal is a sharded ring-buffer event journal. All methods are safe
// for concurrent use. The zero value is not usable; call NewJournal.
type Journal struct {
	enabled  atomic.Bool
	seq      atomic.Uint64
	lastID   atomic.Uint64
	capacity int
	shards   []*shard
}

// DefaultShards and DefaultCapacity size the package-level Default
// journal: 8 stripes so concurrent streams rarely contend, 4096 events
// of 72 B per stripe — 2.36 MB per journal, strictly bounded, and paid
// shard by shard only once events arrive.
const (
	DefaultShards   = 8
	DefaultCapacity = 4096
)

// NewJournal returns a disabled journal with the given shard count and
// per-shard ring capacity (values < 1 take the defaults). It allocates
// the shard headers only; each ring is made by its shard's first Record.
func NewJournal(shards, capacity int) *Journal {
	if shards < 1 {
		shards = DefaultShards
	}
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	j := &Journal{capacity: capacity, shards: make([]*shard, shards)}
	for i := range j.shards {
		j.shards[i] = &shard{}
	}
	return j
}

// Default is the process-wide journal, shared the way telemetry.Default
// is: instrumented packages fall back to it when no explicit journal is
// configured. It starts disabled, so untouched binaries pay only the
// atomic enabled check.
var Default = NewJournal(DefaultShards, DefaultCapacity)

// Enabled reports whether the journal is recording. It is the fast-path
// guard — a single atomic load — and is safe on a nil journal (false).
func (j *Journal) Enabled() bool {
	return j != nil && j.enabled.Load()
}

// SetEnabled turns recording on or off. Events already recorded are
// kept.
func (j *Journal) SetEnabled(on bool) { j.enabled.Store(on) }

// NextTraceID allocates a fresh nonzero trace ID.
func (j *Journal) NextTraceID() uint64 { return j.lastID.Add(1) }

// fnv1a is the 32-bit FNV-1a hash used for shard routing (inlined so
// routing does not allocate).
func fnv1a(id string) uint32 {
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

// Record stamps the event (sequence number; wall clock unless the
// caller already set one, as an event shipped from another process's
// journal has) and appends it to the stream's shard, overwriting the
// oldest event when the ring is full. It is a no-op on a disabled or nil
// journal, so callers that already checked Enabled pay nothing extra.
// Record allocates only the shard's ring, on the first event that lands
// there.
func (j *Journal) Record(e Event) {
	if !j.Enabled() {
		return
	}
	e.Seq = j.seq.Add(1)
	if e.Wall == 0 {
		e.Wall = time.Now().UnixNano()
	}
	sh := j.shards[fnv1a(e.StreamID)%uint32(len(j.shards))]
	sh.mu.Lock()
	if sh.ring == nil {
		sh.ring = make([]Event, j.capacity)
	}
	sh.ring[sh.count%uint64(len(sh.ring))] = e
	sh.count++
	sh.mu.Unlock()
}

// Recorded returns the total number of events ever recorded (including
// ones the rings have since overwritten).
func (j *Journal) Recorded() uint64 {
	var n uint64
	for _, sh := range j.shards {
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of events currently retained.
func (j *Journal) Len() int {
	n := 0
	for _, sh := range j.shards {
		sh.mu.Lock()
		n += int(sh.retained())
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns every retained event in sequence order. Concurrent
// recording during the walk may be partially included.
func (j *Journal) Snapshot() []Event {
	return j.collect(func(Event) bool { return true })
}

// StreamEvents returns the retained events for one stream in sequence
// order.
func (j *Journal) StreamEvents(id string) []Event {
	return j.collect(func(e Event) bool { return e.StreamID == id })
}

// TraceEvents returns the retained events sharing one trace ID in
// sequence order.
func (j *Journal) TraceEvents(traceID uint64) []Event {
	return j.collect(func(e Event) bool { return e.TraceID == traceID })
}

func (j *Journal) collect(keep func(Event) bool) []Event {
	var out []Event
	for _, sh := range j.shards {
		sh.mu.Lock()
		for _, e := range sh.ring[:sh.retained()] {
			if keep(e) {
				out = append(out, e)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Drain returns every retained event in sequence order and forgets
// them — the batching primitive for shipping a source-side journal to
// the server in-band. Each shard is drained atomically, so no event is
// both returned and retained, and none recorded before the call is
// lost.
func (j *Journal) Drain() []Event {
	if j == nil {
		return nil
	}
	var out []Event
	for _, sh := range j.shards {
		sh.mu.Lock()
		out = append(out, sh.ring[:sh.retained()]...)
		sh.count = 0
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
