package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"slices"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it must
// never panic or over-allocate, and every frame it accepts must round-trip
// through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrame(&good, FrameQuery, []byte(`{"id":"x","tick":3}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	var traced bytes.Buffer
	batch, err := json.Marshal([]trace.Event{
		{TraceID: 7, StreamID: "s", Tick: 3, Stage: trace.StageGate, Outcome: trace.OutcomeSuppressed, Value: 0.4, Aux: 0.5},
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&traced, FrameTrace, batch); err != nil {
		f.Fatal(err)
	}
	f.Add(traced.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 2, FrameOK, 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		// The re-encoded frame must parse back identically.
		typ2, payload2, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatal("round trip changed the frame")
		}
	})
}

// FuzzTraceBatch pushes arbitrary bytes through the FrameTrace ingest
// path — JSON decode, journal ingest, auditor ingest. It must never
// panic regardless of what stages, outcomes, or values a hostile peer
// invents.
func FuzzTraceBatch(f *testing.F) {
	good, err := json.Marshal([]trace.Event{
		{TraceID: 1, StreamID: "a", Tick: 0, Stage: trace.StageGate, Outcome: trace.OutcomeSent, Value: 1.5, Aux: 0.5},
		{StreamID: "a", Tick: 1, Stage: trace.StageGate, Outcome: trace.OutcomeSuppressed, Value: 0.9, Aux: 0.5},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"stage":255,"outcome":255,"stream":"","value":1e308,"aux":-1}]`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var evs []trace.Event
		if err := json.Unmarshal(data, &evs); err != nil {
			return
		}
		j := trace.NewJournal(1, 64)
		j.SetEnabled(true)
		a := trace.NewAuditor(telemetry.New(), j)
		for i := range evs {
			j.Ingest(evs[i])
			a.Ingest(evs[i])
		}
		if got := j.Recorded(); got != uint64(len(evs)) {
			// Auditor violations append StageAudit events on top of the
			// ingested ones; recorded count must never be below the batch.
			if got < uint64(len(evs)) {
				t.Fatalf("ingested %d events, journal recorded %d", len(evs), got)
			}
		}
	})
}

// FuzzQueryBinFrames feeds arbitrary payloads to the hello, binary query
// and binary answer decoders: none may panic, whatever one accepts must
// re-encode to the same bytes, and an answer must survive encode → decode
// bit for bit — NaN payloads and signed zeros included.
func FuzzQueryBinFrames(f *testing.F) {
	f.Add(appendHello(nil, CapBinaryQuery))
	f.Add(appendQueryBin(nil, 70, "cap-s"))
	f.Add(appendAnswerBin(nil, 0.5, []float64{0.27, math.Copysign(0, -1), math.Inf(-1), math.NaN()}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		if caps, err := decodeHello(data); err == nil && !bytes.Equal(appendHello(nil, caps), data) {
			t.Fatalf("hello %x re-encodes as %x", data, appendHello(nil, caps))
		}
		if tick, id, err := decodeQueryBin(data); err == nil && !bytes.Equal(appendQueryBin(nil, tick, string(id)), data) {
			t.Fatalf("query %x re-encodes differently", data)
		}
		bound, est, err := decodeAnswerBin(data)
		if err != nil {
			return
		}
		enc := appendAnswerBin(nil, bound, est)
		if !bytes.Equal(enc, data) {
			t.Fatalf("answer %x re-encodes as %x", data, enc)
		}
		bound2, est2, err := decodeAnswerBin(enc)
		if err != nil || math.Float64bits(bound2) != math.Float64bits(bound) || len(est2) != len(est) {
			t.Fatalf("answer did not survive encode → decode: %v", err)
		}
		for i := range est {
			if math.Float64bits(est2[i]) != math.Float64bits(est[i]) {
				t.Fatalf("estimate %d: %x became %x", i, math.Float64bits(est[i]), math.Float64bits(est2[i]))
			}
		}
	})
}

// FuzzReadFrameStream checks that a reader over a concatenation of frames
// plus garbage never panics and consumes frames in order.
func FuzzReadFrameStream(f *testing.F) {
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&stream, FrameMessage, []byte{byte(i)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes(), 3)
	f.Add([]byte{}, 0)

	f.Fuzz(func(t *testing.T, data []byte, n int) {
		r := bytes.NewReader(data)
		// The connection handler's reader sees the same bytes through one
		// reused buffer and must agree frame for frame, error for error.
		reused := bytes.NewReader(data)
		var buf []byte
		for i := 0; i < n%16; i++ {
			typ, payload, err := ReadFrame(r)
			typ2, payload2, err2 := readFrameInto(reused, &buf)
			if (err == nil) != (err2 == nil) || typ != typ2 || !bytes.Equal(payload, payload2) {
				t.Fatalf("frame %d: ReadFrame (%d, %d bytes, %v), readFrameInto (%d, %d bytes, %v)",
					i, typ, len(payload), err, typ2, len(payload2), err2)
			}
			if err != nil {
				return // any structured error is acceptable; panics are not
			}
		}
	})
}

// pipePeer is a connection to a server's real handler over net.Pipe: a
// goroutine reads every frame the server writes, so a reply, a push or a
// refusal never blocks the handler behind the peer's own write, and
// roundTrip reads what one frame earned before the ping barrier's pong.
type pipePeer struct {
	t       *testing.T
	conn    net.Conn
	frames  chan recvFrame
	handled chan struct{} // closed when the server's handler returns
}

type recvFrame struct {
	typ     uint8
	payload []byte
}

func pipeTo(t *testing.T, srv *Server) *pipePeer {
	client, server := net.Pipe()
	p := &pipePeer{t: t, conn: client, frames: make(chan recvFrame), handled: make(chan struct{})}
	go func() {
		defer close(p.handled)
		srv.handleConn(server)
	}()
	go func() {
		defer close(p.frames)
		for {
			typ, payload, err := ReadFrame(client)
			if err != nil {
				return
			}
			p.frames <- recvFrame{typ, payload}
		}
	}()
	return p
}

// close hangs up and waits for the handler and the reader to return.
func (p *pipePeer) close() {
	p.conn.Close()
	for range p.frames {
	}
	<-p.handled
}

// roundTrip sends one frame and a ping behind it, and returns every frame
// the server wrote before the pong.
func (p *pipePeer) roundTrip(typ uint8, payload []byte) []recvFrame {
	p.t.Helper()
	if err := errors.Join(WriteFrame(p.conn, typ, payload), WriteFrame(p.conn, FramePing, make([]byte, 16))); err != nil {
		p.t.Fatal(err)
	}
	var got []recvFrame
	for f := range p.frames {
		if f.typ == FramePong {
			return got
		}
		got = append(got, f)
	}
	p.t.Fatal("connection closed before the pong")
	return nil
}

// expectOne requires exactly one frame of type want.
func expectOne(t *testing.T, what string, got []recvFrame, want uint8) []byte {
	t.Helper()
	if len(got) != 1 || got[0].typ != want {
		t.Fatalf("%s: got %v, want one %s", what, got, FrameName(want))
	}
	return got[0].payload
}

// idForm rewrites a handle-form payload into the id form, record by
// record — the handle's stream name, "ghost" for a handle the connection
// never assigned — requiring each record to decode to the same fields in
// both forms. At the first record that does not decode it appends a byte
// no record starts with, so an id-form receiver stops where the handle
// form's did.
func idForm(t *testing.T, buf []byte, names []string) []byte {
	var out []byte
	var hm, im netsim.Message
	for len(buf) > 0 {
		h, rest, err := netsim.DecodeNextHandle(&hm, buf)
		if err != nil {
			return append(out, 0xFF)
		}
		name := "ghost"
		if int(h) < len(names) {
			name = names[h]
		}
		head := 1
		if hm.Trace != 0 {
			head += 8
		}
		if hm.Stamp != 0 {
			head += 8
		}
		rec := binary.BigEndian.AppendUint16(append([]byte(nil), buf[:head]...), uint16(len(name)))
		rec = append(append(rec, name...), buf[head+4:len(buf)-len(rest)]...)
		idRest, err := netsim.DecodeNext(&im, rec)
		same := err == nil && len(idRest) == 0 && im.StreamID == name && im.Kind == hm.Kind && im.Trace == hm.Trace &&
			im.Stamp == hm.Stamp && im.Tick == hm.Tick && len(im.Value) == len(hm.Value)
		for i := 0; same && i < len(im.Value); i++ {
			same = math.Float64bits(im.Value[i]) == math.Float64bits(hm.Value[i])
		}
		if !same {
			t.Fatalf("handle-form record % x decodes to %+v (err %v); its id form % x to %+v", buf[:len(buf)-len(rest)], hm, err, rec, im)
		}
		out = append(out, rec...)
		buf = rest
	}
	return out
}

// FuzzHandleFrames drives a handle connection — the server's real handler,
// over a pipe — with a fuzz-chosen mix of late hellos, registrations,
// unregistrations, well-formed handle-form records (any handle, flag bits
// flipped, the last one truncated) and raw bytes, as single messages and
// as batches. Nothing may panic; a hello earns FrameError and a
// registration a FrameOK carrying the stream's handle on this connection;
// a correction frame earns nothing or one FrameRefused, never a reply a
// request could take for its own; every decodable handle-form record
// decodes to the same fields as its id form; and a control server fed the
// id form refuses exactly the frames the handle connection refused and
// ends in bit-identical state.
func FuzzHandleFrames(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 2, 12, 0, 0, 0, 5, 0, 0, 1, 0, 0, 0, 0, 1, 0, 7, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 2, 0x88, 0, 0, 0, 3, 0, 0, 9, 0x40, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 3, 1, 1, 4, 1, 2, 12, 1, 1, 0, 3, 0, 0, 2, 0x80, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 3, 0x90, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 0, 2, 0x4c, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		quiet := slog.New(slog.DiscardHandler)
		srv := NewServerWith(Options{Metrics: telemetry.New(), Logger: quiet})
		defer srv.Close()
		control := NewServerWith(Options{Metrics: telemetry.New(), Logger: quiet})
		defer control.Close()
		p := pipeTo(t, srv)
		defer p.close()
		if caps, err := decodeHello(expectOne(t, "hello", p.roundTrip(FrameHello, appendHello(nil, serverCaps)), FrameHello)); err != nil || caps != serverCaps {
			t.Fatalf("hello granted %#x, %v", caps, err)
		}
		ctl := &connWriter{conn: discardConn{}, s: control}
		var scratch netsim.Message
		var names []string // handle → stream, this connection's table
		for ops := 0; len(data) >= 2 && ops < 32; ops++ {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 5 {
			case 0: // a hello after the first frame: refused, as a reply
				expectOne(t, "late hello", p.roundTrip(FrameHello, appendHello(nil, uint32(arg))), FrameError)
			case 1: // a registration: the stream's handle, its first on a repeat
				id := fmt.Sprintf("s%d", arg%4)
				want := slices.Index(names, id)
				if want < 0 {
					want = len(names)
					names = append(names, id)
				}
				reg, _ := json.Marshal(RegisterPayload{ID: id, Spec: cvSpec(), Delta: 0.5})
				h, err := decodeHandle(expectOne(t, "register "+id, p.roundTrip(FrameRegister, reg), FrameOK))
				if err != nil || h != uint32(want) {
					t.Fatalf("register %s: handle %d (%v), want %d", id, h, err, want)
				}
				if err := control.Register(RegisterPayload{ID: id, Spec: cvSpec(), Delta: 0.5}); err != nil {
					t.Fatal(err)
				}
			case 2: // unregister: the stream's handle is dead until it registers again
				if len(names) == 0 {
					continue
				}
				id := names[int(arg)%len(names)]
				if (srv.srv.Unregister(id) == nil) != (control.srv.Unregister(id) == nil) {
					t.Fatalf("unregister %s: the servers disagree", id)
				}
			default: // correction records, built or raw
				n := min(int(arg&0x3f), len(data))
				raw := data[:n]
				data = data[n:]
				payload := raw
				if op%5 == 3 {
					payload = handleRecords(raw, len(names))
				}
				typ := FrameMessageBatch
				if arg&0x40 != 0 {
					typ = FrameMessage
				}
				got := p.roundTrip(typ, payload)
				if cerr := control.dispatch(ctl, typ, idForm(t, payload, names), &scratch); cerr != nil {
					if msg := expectOne(t, "refused "+FrameName(typ), got, FrameRefused); len(msg) == 0 {
						t.Fatal("an empty refusal")
					}
				} else if len(got) != 0 {
					t.Fatalf("%s the control applied earned %v", FrameName(typ), got)
				}
			}
		}
		for _, id := range names {
			a, aerr := srv.srv.Info(id, -1)
			b, berr := control.srv.Info(id, -1)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s: %v, control %v", id, aerr, berr)
			}
			if aerr == nil && (a.Corrections != b.Corrections || a.Duplicates != b.Duplicates || a.Tick != b.Tick ||
				a.LastCorrectionTick != b.LastCorrectionTick || math.Float64bits(a.Prediction[0]) != math.Float64bits(b.Prediction[0])) {
				t.Fatalf("%s: %+v, control %+v", id, a, b)
			}
		}
	})
}

// handleRecords builds handle-form records from raw, 8 bytes each: a
// handle (now and then one past the table), a kind with optional trace and
// stamp, a tick (now and then past the advance limit), a value; byte 7
// flips flag bits on the encoded kind, and a short last chunk truncates
// the last record.
func handleRecords(raw []byte, handles int) []byte {
	var out []byte
	for len(raw) > 0 {
		c := make([]byte, 8)
		short := 8 - copy(c, raw)
		raw = raw[8-short:]
		m := netsim.Message{Kind: netsim.MessageKind(1 + c[1]%5), Tick: int64(c[2]), Value: []float64{float64(int8(c[3]))}}
		if c[1]&0x80 != 0 {
			m.Trace = uint64(c[4]) + 1
		}
		if c[1]&0x40 != 0 {
			m.Stamp = int64(c[5]) + 1
		}
		if c[6]&1 != 0 {
			m.Tick += server.MaxAdvancePerMessage + 256 // past the limit from any tick a record can reach
		}
		at := len(out)
		out, _ = m.AppendEncodeHandle(out, uint32(int(c[0])%(handles+2)))
		out[at] ^= c[7] & 0xC0
		if short > 0 {
			out = out[:len(out)-short]
		}
	}
	return out
}
