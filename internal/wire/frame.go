// Package wire runs the dual-predictor protocol over real TCP
// connections: length-prefixed frames carrying stream registrations,
// binary correction messages, and bounded-value queries. cmd/kfserver and
// cmd/kfsource are thin mains over this package.
//
// Framing: every frame is [uint32 length][uint8 type][payload]; length
// covers type+payload. Registrations are JSON (rare, debuggable);
// corrections reuse the compact binary encoding from internal/netsim,
// naming their stream by a per-connection handle rather than its id, and
// queries and their answers are fixed binary layouts (both frequent,
// small).
//
// Hello: a connection's first frame must be FrameHello, carrying the
// capability word of the wire changes the peer speaks; the server answers
// with the subset it speaks too. Each versioned change spends one bit.
// Bits 0|1 are the protocol floor: a connection whose first frame is not a
// hello asking for both gets one FrameError naming the floor and is
// closed.
//
// Clocks: a networked source ticks on its own schedule, and suppressed
// ticks — the whole point of the protocol — produce no traffic, so the
// server cannot count ticks from messages alone. Instead every correction
// and every query carries its tick: a correction advances its replica to
// its tick lazily, and a query ahead of the replica predicts there from
// its state vector and writes nothing, so only the source's own messages
// move it (a query behind it is refused). This is exactly why "caching a procedure"
// works across a network: the replica can be stepped deterministically to
// any tick on demand.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Frame types.
const (
	// FrameRegister carries a JSON RegisterPayload (client → server).
	FrameRegister uint8 = iota + 1
	// FrameMessage carries a netsim binary message (client → server).
	FrameMessage
	// 3 and 4 are retired, never to be reused: they carried the JSON query
	// and its answer to peers below the protocol floor.
	_
	_
	// FrameOK acknowledges a registration (server → client): [handle
	// uint32], the stream's handle on the connection.
	FrameOK
	// FrameError carries a UTF-8 error string (server → client).
	FrameError
	// FrameMetrics requests a telemetry snapshot; empty payload
	// (client → server).
	FrameMetrics
	// FrameMetricsReply carries the snapshot as Prometheus text
	// exposition (server → client).
	FrameMetricsReply
	// FrameTrace carries a JSON batch of trace.Event lifecycle records
	// (client → server), fire-and-forget like corrections: the source's
	// gate decisions — including suppressed ticks, which produce no
	// correction traffic — reach the server's journal and precision
	// auditor in-band, batched so tracing adds at most one frame per
	// flush rather than one per tick.
	FrameTrace
	// FrameResyncRequest carries a raw stream-id payload (server →
	// client): the staleness watchdog asking the stream's source to
	// resynchronize. The server pushes it unprompted, as it does
	// FrameRefused, so clients must tolerate both at any read point
	// (a Client hands both to its one push dispatcher, whether they arrive
	// ahead of a reply or in PollFeedback between requests).
	FrameResyncRequest
	// FrameMessageBatch carries several concatenated netsim binary
	// messages in one frame (client → server). The encoding is
	// self-delimiting, so the batch payload is simply each message's
	// encoding back to back; the server decodes sub-records in place and
	// applies the whole batch under one lock acquisition. A coalescing
	// client amortizes the 5-byte frame header, the syscall, and the
	// server's lock over every correction in the batch.
	FrameMessageBatch
	// FramePing carries [client_send_ns(8)][last_rtt_ns(8)] (client →
	// server): the NTP-style clock-skew probe. The server folds
	// recv − send − rtt/2 into the connection's skew estimator and
	// answers with a FramePong echoing client_send_ns, from which the
	// client measures the round trip it reports on its NEXT ping (the
	// first ping carries rtt 0 — a usable, merely uncorrected sample).
	FramePing
	// FramePong echoes the ping's client_send_ns (server → client).
	FramePong
	// FrameHello carries a 4-byte big-endian capability word, both
	// directions: the client's word as its first frame, the server's
	// reply the client's word ANDed with its own. A hello anywhere but
	// first is refused.
	FrameHello
	// FrameQueryBin carries [tick int64][stream id bytes] (client →
	// server).
	FrameQueryBin
	// FrameAnswerBin carries [bound float64][estimate float64 × n]
	// (server → client), the reply to FrameQueryBin; n is implied by the
	// payload length.
	FrameAnswerBin
	// FrameRefused carries a UTF-8 error string (server → client), pushed
	// when a fire-and-forget frame — a correction, a batch, a trace batch —
	// is refused. It answers no request, so FrameError only ever answers
	// the request just sent.
	FrameRefused
)

// Capability bits of the FrameHello word, one per versioned wire change.
const (
	// CapBinaryQuery: queries travel as FrameQueryBin/FrameAnswerBin.
	CapBinaryQuery uint32 = 1 << iota
	// CapStreamHandles: the FrameOK answering a FrameRegister carries the
	// stream's handle, [handle uint32], its index in the connection's
	// handle table; correction records name their stream by that handle
	// (netsim's handle form); a refused fire-and-forget frame is pushed as
	// FrameRefused.
	CapStreamHandles
)

// serverCaps is every capability this package speaks, and the protocol
// floor: a client asks for all of them, and the server refuses a
// connection whose hello does not.
const serverCaps = CapBinaryQuery | CapStreamHandles

// capNames names the capability bits, bit i at index i.
var capNames = [...]string{"CapBinaryQuery", "CapStreamHandles"}

// ErrNoHello is returned by a dial whose server refused the protocol hello
// or did not grant every capability the client needs: it predates them,
// and must be upgraded before its clients.
var ErrNoHello = errors.New("wire: server does not speak the protocol hello this client needs (upgrade kfserver first)")

func appendHello(dst []byte, caps uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, caps)
}

func decodeHello(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("wire: bad hello payload length %d", len(payload))
	}
	return binary.BigEndian.Uint32(payload), nil
}

// decodeHandle reads the handle a FrameOK carries on a CapStreamHandles
// connection.
func decodeHandle(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("wire: bad register reply length %d", len(payload))
	}
	return binary.BigEndian.Uint32(payload), nil
}

func appendQueryBin(dst []byte, tick int64, id string) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(tick))
	return append(dst, id...)
}

// decodeQueryBin splits a FrameQueryBin payload; id aliases payload.
func decodeQueryBin(payload []byte) (tick int64, id []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("wire: bad binary query payload length %d", len(payload))
	}
	return int64(binary.BigEndian.Uint64(payload)), payload[8:], nil
}

func appendAnswerBin(dst []byte, bound float64, est []float64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(bound))
	for _, v := range est {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeAnswerBin reads a FrameAnswerBin payload into a fresh estimate.
func decodeAnswerBin(payload []byte) (bound float64, est []float64, err error) {
	if len(payload) < 8 || len(payload)%8 != 0 {
		return 0, nil, fmt.Errorf("wire: bad binary answer payload length %d", len(payload))
	}
	bound = math.Float64frombits(binary.BigEndian.Uint64(payload))
	est = make([]float64, len(payload)/8-1)
	for i := range est {
		est[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[8+8*i:]))
	}
	return bound, est, nil
}

// FrameName returns a short human-readable name for a frame type, used
// as a telemetry label and in logs.
func FrameName(typ uint8) string {
	switch typ {
	case FrameRegister:
		return "register"
	case FrameMessage:
		return "message"
	case FrameOK:
		return "ok"
	case FrameError:
		return "error"
	case FrameMetrics:
		return "metrics"
	case FrameMetricsReply:
		return "metrics-reply"
	case FrameTrace:
		return "trace"
	case FrameResyncRequest:
		return "resync-request"
	case FrameMessageBatch:
		return "message-batch"
	case FramePing:
		return "ping"
	case FramePong:
		return "pong"
	case FrameHello:
		return "hello"
	case FrameQueryBin:
		return "query-bin"
	case FrameAnswerBin:
		return "answer-bin"
	case FrameRefused:
		return "refused"
	default:
		return fmt.Sprintf("unknown(%d)", typ)
	}
}

// MaxFrameSize bounds a frame to keep a malicious or corrupted peer from
// forcing a giant allocation.
const MaxFrameSize = 1 << 20

// ErrFrameTooLarge is returned when a peer announces a frame above
// MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r into a payload of its own.
func ReadFrame(r io.Reader) (typ uint8, payload []byte, err error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

// maxKeptFrameBody is the largest body buffer readFrameInto carries from
// one frame to the next (MaxFrameSize is sixteen times that): one oversized
// frame must not pin its megabyte for the life of a connection.
const maxKeptFrameBody = 64 << 10

// readFrameInto is ReadFrame through a body buffer the caller reuses: *buf
// is grown when a frame needs it and the payload aliases it, so the payload
// is valid only until the next call on the same buffer. A connection that
// reads every frame this way allocates nothing per frame once the buffer
// has reached its largest ordinary frame.
func readFrameInto(r io.Reader, buf *[]byte) (typ uint8, payload []byte, err error) {
	if cap(*buf) > maxKeptFrameBody {
		*buf = nil
	}
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	lenBuf := (*buf)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: zero-length frame")
	}
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooLarge
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return body[0], body[1:], nil
}
