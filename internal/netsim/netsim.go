// Package netsim provides the simulated network substrate the experiment
// harness measures: typed messages with an exact binary wire encoding,
// links that count messages and bytes, and optional latency and loss
// injection for fault-tolerance testing.
//
// The paper's headline metric is communication overhead — the number of
// messages (and bytes) a source must send to keep the server's answers
// within precision bounds. The simulator counts those exactly; the TCP
// demo in internal/wire shows the same messages crossing a real socket.
//
// The codec reuses caller-provided storage: AppendEncode appends to the
// caller's buffer and DecodeInto/DecodeNext decode into the caller's
// Message, so a steady-state correction round trip performs zero heap
// allocations. A record names its stream by id; the handle form
// (AppendEncodeHandle/DecodeNextHandle) names it by a per-connection
// uint32 instead, and is otherwise the same bytes.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// MessageKind discriminates protocol messages.
type MessageKind uint8

// Message kinds.
const (
	// KindCorrection carries a measurement that both replicas must
	// incorporate.
	KindCorrection MessageKind = iota + 1
	// KindHeartbeat tells the server the source is alive without
	// carrying a correction (sent after long silences).
	KindHeartbeat
	// KindDeltaUpdate tells the source's replica manager to change the
	// precision bound (server → source, used by the budget allocator).
	KindDeltaUpdate
	// KindResync carries the measurement followed by a full predictor
	// snapshot, hard-resynchronizing the server replica after possible
	// message loss.
	KindResync
	// KindResyncRequest asks the source to resynchronize (server →
	// source): the staleness watchdog's feedback message. The source
	// answers by upgrading its next correction to a KindResync snapshot.
	KindResyncRequest

	// numKinds bounds the per-kind counter array (kinds are 1-based).
	numKinds = int(KindResyncRequest) + 1
)

func (k MessageKind) String() string {
	switch k {
	case KindCorrection:
		return "correction"
	case KindHeartbeat:
		return "heartbeat"
	case KindDeltaUpdate:
		return "delta-update"
	case KindResync:
		return "resync"
	case KindResyncRequest:
		return "resync-request"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(k))
	}
}

// Message is one unit of communication between a source and the server.
type Message struct {
	Kind     MessageKind
	StreamID string
	Tick     int64
	// Value carries the measurement for corrections, or the new δ (one
	// element) for delta updates.
	Value []float64
	// Trace is the in-band lifecycle trace ID (see internal/trace): 0
	// when tracing is off, in which case it costs no wire bytes — the
	// encoding only carries the ID (flagged on the kind byte) when it
	// is nonzero, so message-count and byte-count experiment results
	// are identical with tracing disabled.
	Trace uint64
	// Stamp is the in-band origin timestamp (see internal/freshness):
	// the source's clock reading, in nanoseconds, at the moment the gate
	// decided to ship this message. Like Trace it rides a flag bit on
	// the kind byte and costs no wire bytes when zero, so unstamped
	// encodings are byte-identical to pre-freshness builds.
	Stamp int64
}

// tracedFlag marks a kind byte whose message carries a trace ID;
// stampedFlag marks one carrying an origin timestamp. Kinds occupy the
// low bits (1..numKinds), leaving the top two bits free.
const (
	tracedFlag  = 0x80
	stampedFlag = 0x40
)

// EncodedSize returns the exact number of bytes AppendEncode appends.
func (m *Message) EncodedSize() int {
	// kind(1) [+ trace(8)] [+ stamp(8)] + idLen(2) + id + tick(8) + valLen(2) + 8·len(Value)
	n := 1 + 2 + len(m.StreamID) + 8 + 2 + 8*len(m.Value)
	if m.Trace != 0 {
		n += 8
	}
	if m.Stamp != 0 {
		n += 8
	}
	return n
}

// AppendEncode appends the message's wire encoding to buf and returns the
// extended slice. When buf has EncodedSize spare capacity the call does
// not allocate, so a send path that reuses one buffer is zero-alloc.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	if len(m.StreamID) > math.MaxUint16 {
		return nil, fmt.Errorf("netsim: stream id too long (%d bytes)", len(m.StreamID))
	}
	buf, err := m.appendHead(buf)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.StreamID)))
	buf = append(buf, m.StreamID...)
	return m.appendTail(buf), nil
}

// AppendEncodeHandle is AppendEncode in the handle form: the record names
// its stream by h, a handle the receiving connection assigned, so
// [idLen u16][id] becomes [handle u32] and every other byte is the same.
// m.StreamID is not encoded.
func (m *Message) AppendEncodeHandle(buf []byte, h uint32) ([]byte, error) {
	buf, err := m.appendHead(buf)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, h)
	return m.appendTail(buf), nil
}

// appendHead appends what precedes the stream's name: the kind byte with
// its flags, then the trace ID and the stamp when set.
func (m *Message) appendHead(buf []byte) ([]byte, error) {
	if len(m.Value) > math.MaxUint16 {
		return nil, fmt.Errorf("netsim: value too long (%d elements)", len(m.Value))
	}
	if m.Stamp < 0 {
		return nil, fmt.Errorf("netsim: negative stamp %d", m.Stamp)
	}
	kind := byte(m.Kind)
	if m.Trace != 0 {
		kind |= tracedFlag
	}
	if m.Stamp != 0 {
		kind |= stampedFlag
	}
	buf = append(buf, kind)
	if m.Trace != 0 {
		buf = binary.BigEndian.AppendUint64(buf, m.Trace)
	}
	if m.Stamp != 0 {
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Stamp))
	}
	return buf, nil
}

// appendTail appends what follows the stream's name: the tick and the
// values.
func (m *Message) appendTail(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.Tick))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Value)))
	for _, v := range m.Value {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeNext parses one message from the front of buf into m and returns
// the unconsumed remainder. The encoding is self-delimiting, so a batch
// of concatenated AppendEncode outputs decodes by calling DecodeNext in a
// loop. Storage reuse matches DecodeInto. On error m is left in an
// unspecified state.
func DecodeNext(m *Message, buf []byte) (rest []byte, err error) {
	if len(buf) < 3 {
		return nil, fmt.Errorf("netsim: message truncated (%d bytes)", len(buf))
	}
	if buf, err = decodeHead(m, buf); err != nil {
		return nil, err
	}
	if len(buf) < 2 {
		return nil, fmt.Errorf("netsim: message truncated (no id length)")
	}
	idLen := int(binary.BigEndian.Uint16(buf[:2]))
	if len(buf) < 2+idLen+8+2 {
		return nil, fmt.Errorf("netsim: message truncated after header")
	}
	if rest, err = decodeTail(m, buf[2+idLen:]); err != nil {
		return nil, err
	}
	// string([]byte) == string compares without converting, so the id
	// allocates only when it actually changed.
	if id := buf[2 : 2+idLen]; m.StreamID != string(id) {
		m.StreamID = string(id)
	}
	return rest, nil
}

// DecodeNextHandle parses one handle-form record (AppendEncodeHandle) from
// the front of buf into m and returns its handle and the unconsumed
// remainder. m.StreamID is left alone: the handle names the stream only to
// the connection that assigned it.
func DecodeNextHandle(m *Message, buf []byte) (h uint32, rest []byte, err error) {
	if len(buf) < 5 {
		return 0, nil, fmt.Errorf("netsim: message truncated (%d bytes)", len(buf))
	}
	if buf, err = decodeHead(m, buf); err != nil {
		return 0, nil, err
	}
	if len(buf) < 4+8+2 {
		return 0, nil, fmt.Errorf("netsim: message truncated after header")
	}
	if rest, err = decodeTail(m, buf[4:]); err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint32(buf), rest, nil
}

// PeekHandle returns the handle of the handle-form record at the front of
// buf and what follows the record, decoding no value and checking only
// that the framing fits; ok is false when it does not. It is a
// look-ahead: DecodeNextHandle remains the record's one check.
func PeekHandle(buf []byte) (h uint32, rest []byte, ok bool) {
	if len(buf) == 0 {
		return 0, nil, false
	}
	off := 1 + 8*bits.OnesCount8(buf[0]&(tracedFlag|stampedFlag)) // kind, trace, stamp
	if len(buf) < off+4+8+2 {
		return 0, nil, false
	}
	end := off + 4 + 8 + 2 + 8*int(binary.BigEndian.Uint16(buf[off+12:]))
	if len(buf) < end {
		return 0, nil, false
	}
	return binary.BigEndian.Uint32(buf[off:]), buf[end:], true
}

// decodeHead parses the kind byte and the trace ID and stamp it flags,
// returning what follows them.
func decodeHead(m *Message, buf []byte) ([]byte, error) {
	kind := buf[0]
	traced := kind&tracedFlag != 0
	stamped := kind&stampedFlag != 0
	m.Kind = MessageKind(kind &^ (tracedFlag | stampedFlag))
	switch m.Kind {
	case KindCorrection, KindHeartbeat, KindDeltaUpdate, KindResync, KindResyncRequest:
	default:
		return nil, fmt.Errorf("netsim: unknown message kind %d", buf[0])
	}
	buf = buf[1:]
	m.Trace = 0
	if traced {
		if len(buf) < 8 {
			return nil, fmt.Errorf("netsim: traced message truncated")
		}
		m.Trace = binary.BigEndian.Uint64(buf[:8])
		if m.Trace == 0 {
			// The flag without an ID would make the encoding ambiguous
			// (two byte strings for one message); reject it so every
			// accepted message has exactly one canonical form.
			return nil, fmt.Errorf("netsim: traced message with zero trace id")
		}
		buf = buf[8:]
	}
	m.Stamp = 0
	if stamped {
		if len(buf) < 8 {
			return nil, fmt.Errorf("netsim: stamped message truncated")
		}
		m.Stamp = int64(binary.BigEndian.Uint64(buf[:8]))
		if m.Stamp <= 0 {
			// Same canonical-form rule as the trace flag: a set flag with a
			// zero stamp would give one message two encodings, and a
			// negative stamp cannot be produced by any clock we stamp from.
			return nil, fmt.Errorf("netsim: stamped message with non-positive stamp")
		}
		buf = buf[8:]
	}
	return buf, nil
}

// decodeTail parses the tick and the values from the front of rest, which
// holds at least the tick and the value count.
func decodeTail(m *Message, rest []byte) ([]byte, error) {
	m.Tick = int64(binary.BigEndian.Uint64(rest[:8]))
	valLen := int(binary.BigEndian.Uint16(rest[8:10]))
	rest = rest[10:]
	if len(rest) < 8*valLen {
		return nil, fmt.Errorf("netsim: message has %d value bytes, want %d", len(rest), 8*valLen)
	}
	if cap(m.Value) >= valLen {
		m.Value = m.Value[:valLen]
	} else {
		m.Value = make([]float64, valLen)
	}
	if valLen == 0 {
		m.Value = nil
		return rest, nil
	}
	for i := range m.Value {
		m.Value[i] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*i:]))
	}
	return rest[8*valLen:], nil
}

// DecodeInto parses a message produced by AppendEncode into m, reusing m's
// storage where possible: the Value slice is reused when its capacity
// suffices, and the StreamID string is kept when the bytes are unchanged
// (the overwhelmingly common case — one decoder per connection or link
// sees the same stream repeatedly). Decoding a steady stream of
// corrections into the same Message therefore does not allocate. On error
// m is left in an unspecified state.
func DecodeInto(m *Message, buf []byte) error {
	rest, err := DecodeNext(m, buf)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("netsim: %d trailing bytes after message", len(rest))
	}
	return nil
}

// Clone returns a deep copy of the message (the Value slice is copied).
func (m *Message) Clone() *Message {
	c := GetMessage()
	c.Kind = m.Kind
	c.StreamID = m.StreamID
	c.Tick = m.Tick
	c.Value = append(c.Value[:0], m.Value...)
	c.Trace = m.Trace
	c.Stamp = m.Stamp
	return c
}

// msgPool recycles Messages across the send path. Ownership is
// transfer-on-delivery: the sender constructs a message with GetMessage
// and hands it to the link; whoever finally receives it may return it
// with PutMessage once every field has been consumed (the server replica
// copies what it keeps). Receivers that do not participate simply leave
// messages to the garbage collector — the pool is an optimization, never
// a correctness requirement.
var msgPool = sync.Pool{
	New: func() any { return &Message{} },
}

// GetMessage returns a pooled message with zero-length Value and all
// other fields cleared.
func GetMessage() *Message {
	return msgPool.Get().(*Message)
}

// PutMessage returns a message to the pool. The caller must not retain
// the message or any slice of its Value afterwards.
func PutMessage(m *Message) {
	m.Kind = 0
	m.StreamID = ""
	m.Tick = 0
	m.Value = m.Value[:0]
	m.Trace = 0
	m.Stamp = 0
	msgPool.Put(m)
}

// Stats is a snapshot of traffic counters for one link direction.
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64
	// ByKind counts delivered messages per kind.
	ByKind map[MessageKind]int64
}

// LinkConfig sets optional impairments on a link. Every impairment can
// also be changed after construction via the Set* methods — the chaos
// harness flips them mid-run to model fault windows.
type LinkConfig struct {
	// DelayTicks delays every delivery by this many calls to Tick.
	DelayTicks int
	// DropProb drops each message independently with this probability.
	DropProb float64
	// DuplicateProb delivers each (non-dropped) message twice with this
	// probability, modelling retransmission storms.
	DuplicateProb float64
	// ReorderProb holds each message back one extra tick with this
	// probability, so later sends can overtake it.
	ReorderProb float64
	// Seed seeds the impairment RNG; used whenever any probabilistic
	// impairment is (or later becomes) nonzero.
	Seed int64
	// Name labels the link's telemetry series (default "link").
	Name string
	// Telemetry receives the link's traffic counters; nil means
	// telemetry.Default.
	Telemetry *telemetry.Registry
	// Trace receives transit events for traced messages; nil means
	// trace.Default. Costs one atomic load per Send while tracing is
	// disabled.
	Trace *trace.Journal
}

// Link is a unidirectional channel that counts all traffic and delivers
// messages to a receiver callback, optionally after a delay and with
// probabilistic loss. Send and Tick must each be called from a single
// goroutine at a time (per link — distinct streams' links may be driven
// concurrently, one observer goroutine a stream), but the traffic counters
// are atomic, so Stats may be read from any goroutine at any moment.
type Link struct {
	recv   func(*Message)
	cfg    LinkConfig
	rng    *rand.Rand
	queue  []queued
	nowLag int

	// Mutable impairments, initialized from cfg and adjustable from the
	// link's driving goroutine (same contract as Send/Tick) via the Set*
	// methods.
	delay   int
	drop    float64
	dup     float64
	reorder float64
	down    bool

	msgs    atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64
	byKind  [numKinds]atomic.Int64

	telMsgs    *telemetry.Counter
	telBytes   *telemetry.Counter
	telDropped *telemetry.Counter
	telPending *telemetry.Gauge

	tr *trace.Journal
}

type queued struct {
	deliverAt int
	msg       *Message
}

// NewLink returns a link delivering to recv with the given impairments.
func NewLink(recv func(*Message), cfg LinkConfig) *Link {
	l := &Link{
		recv:    recv,
		cfg:     cfg,
		delay:   cfg.DelayTicks,
		drop:    cfg.DropProb,
		dup:     cfg.DuplicateProb,
		reorder: cfg.ReorderProb,
	}
	if cfg.DropProb > 0 || cfg.DuplicateProb > 0 || cfg.ReorderProb > 0 {
		l.ensureRNG()
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	name := cfg.Name
	if name == "" {
		name = "link"
	}
	l.telMsgs = reg.Counter("link_messages_total", "link", name)
	l.telBytes = reg.Counter("link_bytes_total", "link", name)
	l.telDropped = reg.Counter("link_dropped_total", "link", name)
	l.telPending = reg.Gauge("link_pending", "link", name)
	l.tr = cfg.Trace
	if l.tr == nil {
		l.tr = trace.Default
	}
	return l
}

// traceTransit records one link-stage event for a traced message.
func (l *Link) traceTransit(m *Message, outcome trace.Outcome, delay float64) {
	l.tr.Record(trace.Event{
		TraceID:  m.Trace,
		StreamID: m.StreamID,
		Tick:     m.Tick,
		Stage:    trace.StageLink,
		Outcome:  outcome,
		Value:    float64(m.EncodedSize()),
		Aux:      delay,
	})
}

// ensureRNG lazily creates the impairment RNG (a setter may introduce
// the first probabilistic impairment after construction).
func (l *Link) ensureRNG() {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.cfg.Seed))
	}
}

// SetDelayTicks changes the delivery delay for subsequently sent
// messages; in-flight messages keep their original maturity.
func (l *Link) SetDelayTicks(d int) { l.delay = d }

// SetDropProb changes the per-message loss probability.
func (l *Link) SetDropProb(p float64) {
	l.drop = p
	if p > 0 {
		l.ensureRNG()
	}
}

// SetDuplicateProb changes the per-message duplication probability.
func (l *Link) SetDuplicateProb(p float64) {
	l.dup = p
	if p > 0 {
		l.ensureRNG()
	}
}

// SetReorderProb changes the per-message reorder probability (a reordered
// message is held back one extra tick so later sends overtake it).
func (l *Link) SetReorderProb(p float64) {
	l.reorder = p
	if p > 0 {
		l.ensureRNG()
	}
}

// SetDown partitions (true) or heals (false) the link. While partitioned
// every send is dropped; messages already in flight still mature.
func (l *Link) SetDown(down bool) { l.down = down }

// Send transmits m across the link. With no impairments the delivery is
// synchronous.
func (l *Link) Send(m *Message) {
	traced := m.Trace != 0 && l.tr.Enabled()
	if l.down || (l.drop > 0 && l.rng.Float64() < l.drop) {
		l.dropped.Add(1)
		l.telDropped.Inc()
		if traced {
			l.traceTransit(m, trace.OutcomeDropped, 0)
		}
		return
	}
	// The duplicate must be a deep copy taken *before* the first
	// delivery: a pooled message may be recycled by its receiver the
	// moment transmit hands it over, and the duplicate's receiver later
	// owns (and may recycle) its copy independently. The RNG draw stays
	// after the first transmit so impairment sequences are unchanged.
	var dup *Message
	if l.dup > 0 {
		dup = m.Clone()
	}
	l.transmit(m, traced)
	if dup != nil && l.rng.Float64() < l.dup {
		l.transmit(dup, traced)
	} else if dup != nil {
		PutMessage(dup)
	}
}

// transmit counts one copy of m and delivers or enqueues it.
func (l *Link) transmit(m *Message, traced bool) {
	size := int64(m.EncodedSize())
	l.msgs.Add(1)
	l.bytes.Add(size)
	if k := int(m.Kind); k > 0 && k < numKinds {
		l.byKind[k].Add(1)
	}
	l.telMsgs.Inc()
	l.telBytes.Add(size)
	delay := l.delay
	if l.reorder > 0 && l.rng.Float64() < l.reorder {
		// Held back one extra tick: synchronous sends become delayed and
		// delayed sends mature late, so later messages overtake this one.
		delay++
	}
	if delay <= 0 {
		if traced {
			l.traceTransit(m, trace.OutcomeDelivered, 0)
		}
		l.recv(m)
		return
	}
	if traced {
		l.traceTransit(m, trace.OutcomeEnqueued, float64(delay))
	}
	l.queue = append(l.queue, queued{deliverAt: l.nowLag + delay, msg: m})
	l.telPending.Set(float64(len(l.queue)))
}

// Tick advances simulated time by one step, delivering matured messages
// in send order.
func (l *Link) Tick() {
	l.nowLag++
	if len(l.queue) == 0 {
		return
	}
	n := 0
	for _, q := range l.queue {
		if q.deliverAt <= l.nowLag {
			if q.msg.Trace != 0 && l.tr.Enabled() {
				l.traceTransit(q.msg, trace.OutcomeDelivered, float64(l.delay))
			}
			l.recv(q.msg)
		} else {
			l.queue[n] = q
			n++
		}
	}
	l.queue = l.queue[:n]
	l.telPending.Set(float64(len(l.queue)))
}

// Stats returns a snapshot of the traffic counters. Safe to call
// concurrently with Send and Tick.
func (l *Link) Stats() Stats {
	out := Stats{
		Messages: l.msgs.Load(),
		Bytes:    l.bytes.Load(),
		Dropped:  l.dropped.Load(),
	}
	for k := 1; k < numKinds; k++ {
		if n := l.byKind[k].Load(); n > 0 {
			if out.ByKind == nil {
				out.ByKind = make(map[MessageKind]int64)
			}
			out.ByKind[MessageKind(k)] = n
		}
	}
	return out
}

// Pending returns the number of in-flight (delayed, undelivered) messages.
func (l *Link) Pending() int { return len(l.queue) }
