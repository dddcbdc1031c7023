package wal

import (
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
)

// fuzzSeeds builds representative valid byte streams — a register
// record, a message record, a checkpoint file, and a multi-record
// segment — so the fuzzer mutates real frames instead of rediscovering
// the format from zero.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	regPayload, err := encodeJSON(RegisterRecord{
		ID: "seed",
		Spec: predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}},
		Delta: 0.5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "seed", Tick: 7, Value: []float64{1.5, -2}}
	msgPayload, err := m.AppendEncode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	reg := appendRecord(nil, RecRegister, 0, regPayload)
	msg := appendRecord(nil, RecMessage, 7, msgPayload)
	ckpt := oracle(tb, &ckpt{Seq: 3, Streams: []stream{{Reg: RegisterRecord{ID: "seed"}, Live: Live{Tick: 9}, Snapshot: []float64{1}}}})
	multi := append(append([]byte(nil), reg...), msg...)
	return [][]byte{reg, msg, ckpt, multi, multi[:len(multi)-5], {0, 0, 0}, {}}
}

// FuzzWALRecord feeds hostile bytes — truncated frames, bit flips,
// random garbage — through every path that parses log bytes: the raw
// record decoder, the payload decoders behind it, and the full
// open-repair-replay pipeline with the bytes planted as a segment file
// and again as a checkpoint file. Nothing may panic; a log opened over
// garbage must come back writable.
func FuzzWALRecord(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	quiet := slog.New(slog.DiscardHandler)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The raw decoder, walked exactly like scan walks a segment. Every
		// accepted record's payload must decode (or reject) cleanly too.
		rest := data
		for len(rest) > 0 {
			typ, _, payload, size, ok := decodeRecord(rest)
			if !ok {
				break
			}
			if size <= 0 || size > len(rest) {
				t.Fatalf("decodeRecord: size %d outside remaining %d", size, len(rest))
			}
			decodePayload(typ, payload)
			rest = rest[size:]
		}

		// The bytes as a segment: Open repairs (truncating the torn tail),
		// Restore replays the surviving prefix, and the log stays usable.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000000.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// ...and the same bytes as a checkpoint, exercising the torn-
		// checkpoint fallback in the same pass.
		if err := os.WriteFile(filepath.Join(dir, "checkpoint-00000000000000000000.ckpt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, Registry: telemetry.New(), Logger: quiet})
		if err != nil {
			return // rejecting hostile bytes is fine; panicking is not
		}
		_, _ = l.Restore(func(typ RecordType, _ int64, payload []byte) error {
			decodePayload(typ, payload)
			return nil
		})
		if err := l.AppendRegister(RegisterRecord{ID: "post-repair", Delta: 1}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close after repair: %v", err)
		}
	})
}

// decodePayload runs a record's payload through the decoder its type
// names; the fuzz targets only require that none panics.
func decodePayload(typ RecordType, payload []byte) {
	switch typ {
	case RecRegister:
		_, _ = DecodeRegister(payload)
	case RecState:
		var st State
		_ = DecodeState(0, payload, &st)
	case RecMessage:
		var m netsim.Message
		_ = netsim.DecodeInto(&m, payload)
	}
}

// FuzzCheckpointRecords: a cut of arbitrary ids and arbitrary floats (NaN payloads and −0 included) writes the record
// oracle's bytes and replays bit for bit; and arbitrary bytes, given to
// the checkpoint reader as a file and to DecodeState as a payload, never
// panic.
func FuzzCheckpointRecords(f *testing.F) {
	f.Add("alpha", "<b>&\"c\"", uint64(3), int64(9), 1.5, -2.25, 1e21, []byte{0, 0, 0, 1, 'a'})
	f.Add("", "\xff\xfe", uint64(0), int64(-1), math.Copysign(0, -1), math.NaN(), math.Inf(-1), []byte{})
	f.Add("same", "same", uint64(1<<63), int64(math.MaxInt64), math.MaxFloat64, -1e-300, 0.1,
		oracle(f, &ckpt{Seq: 1, Streams: []stream{{Reg: RegisterRecord{ID: "x"}, Snapshot: []float64{2}}}}))
	f.Fuzz(func(t *testing.T, id1, id2 string, seq uint64, tick int64, a, b, c float64, raw []byte) {
		var st State
		_ = DecodeState(0, raw, &st)
		dir := t.TempDir()
		path := filepath.Join(dir, "checkpoint-00000000000000000000.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if data, _, _, err := readCheckpoint(path); err == nil {
			for rest := data; len(rest) > 0; {
				typ, _, payload, size, _ := decodeRecord(rest)
				decodePayload(typ, payload)
				rest = rest[size:]
			}
		}

		if id1 == "" || id2 == "" || !utf8.ValidString(id1) || !utf8.ValidString(id2) {
			return // a registered id is non-empty, and JSON carries valid UTF-8 only
		}
		spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
		if !math.IsNaN(a) && !math.IsInf(a, 0) {
			spec.Alpha = a // the registration is JSON: finite floats only
		}
		streams := []stream{
			{Reg: RegisterRecord{ID: id1, Spec: spec, Norm: int(tick & 3)}, Live: Live{Delta: c, Tick: tick, LastCorr: -tick,
				LastValueTick: tick}, Value: []float64{a}, Snapshot: []float64{a, b, c}},
			{Reg: RegisterRecord{ID: id2}, Live: Live{Delta: b, Corrections: tick}, Snapshot: []float64{c}},
		}
		if id1 == id2 {
			streams = streams[:1]
		} else if id2 < id1 {
			streams[0], streams[1] = streams[1], streams[0]
		}
		checkStreamed(t, &ckpt{Seq: seq, Streams: streams})
	})
}
