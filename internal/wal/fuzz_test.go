package wal

import (
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
)

// fuzzSeeds builds representative valid byte streams — a register
// record, a message record, a checkpoint frame, and a multi-record
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
	ckptPayload, err := encodeJSON(&Checkpoint{Seq: 3, Streams: []StreamState{{ID: "seed", Tick: 9}}})
	if err != nil {
		tb.Fatal(err)
	}
	reg := appendRecord(nil, RecRegister, 0, regPayload)
	msg := appendRecord(nil, RecMessage, 7, msgPayload)
	ckpt := appendRecord(nil, recCheckpoint, 3, ckptPayload)
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
			switch typ {
			case RecRegister:
				_, _ = DecodeRegister(payload)
			case RecMessage:
				var m netsim.Message
				_ = netsim.DecodeInto(&m, payload)
			}
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
		_, _ = l.Restore(func(*Checkpoint) error { return nil },
			func(typ RecordType, _ int64, payload []byte) error {
				switch typ {
				case RecRegister:
					_, _ = DecodeRegister(payload)
				case RecMessage:
					var m netsim.Message
					_ = netsim.DecodeInto(&m, payload)
				}
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

// FuzzCheckpointEncode: for arbitrary ids (invalid UTF-8 included) and
// finite floats, the streamed checkpoint file equals the json.Marshal
// oracle byte for byte, and loadCheckpoint returns the checkpoint the
// oracle's payload decodes to.
func FuzzCheckpointEncode(f *testing.F) {
	f.Add("alpha", "<b>&\"c\"", uint64(3), int64(9), 1.5, -2.25, 1e21)
	f.Add("", "\xff\xfe", uint64(0), int64(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-7)
	f.Add("same", "same", uint64(1<<63), int64(math.MaxInt64), math.MaxFloat64, -1e-300, 0.1)
	f.Fuzz(func(t *testing.T, id1, id2 string, seq uint64, tick int64, a, b, c float64) {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("JSON carries finite floats only")
			}
		}
		streams := []StreamState{
			{ID: id1, Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 1, Alpha: a}, RegisterDelta: b,
				Delta: c, Tick: tick, LastCorr: -tick, LastValue: []float64{a}, LastValueTick: tick, Snapshot: []float64{a, b, c}},
			{ID: id2, Norm: int(tick & 3), Corrections: tick, Snapshot: []float64{c}},
		}
		if id1 == id2 {
			streams = streams[:1]
		} else if id2 < id1 {
			streams[0], streams[1] = streams[1], streams[0]
		}
		checkStreamed(t, &Checkpoint{Seq: seq, Streams: streams})
	})
}
