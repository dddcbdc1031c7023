package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

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
