package netsim

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the message decoder: it must never
// panic, and anything it accepts must re-encode to the same bytes
// (canonical encoding).
func FuzzDecode(f *testing.F) {
	seed := []*Message{
		{Kind: KindCorrection, StreamID: "s", Tick: 1, Value: []float64{1.5}},
		{Kind: KindHeartbeat, StreamID: "hb", Tick: -3},
		{Kind: KindDeltaUpdate, StreamID: "d", Tick: 0, Value: []float64{0.25}},
		{Kind: KindResync, StreamID: "r", Tick: 7, Value: []float64{1, 2, 3, 4}},
		// Traced variants exercise the flag-bit extension of the kind
		// byte; canonicality requires flagged messages to carry a
		// nonzero trace id.
		{Kind: KindCorrection, StreamID: "t", Tick: 2, Value: []float64{-0.5}, Trace: 0xDEADBEEF},
		{Kind: KindResync, StreamID: "tr", Tick: 9, Value: []float64{1, 2}, Trace: 1},
		// Stamped variants exercise the second flag bit, alone and
		// together with a trace id.
		{Kind: KindCorrection, StreamID: "st", Tick: 3, Value: []float64{2.5}, Stamp: 1},
		{Kind: KindCorrection, StreamID: "both", Tick: 4, Value: []float64{8}, Trace: 7, Stamp: 1_000_000_001},
	}
	for _, m := range seed {
		buf, err := encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		if err != nil {
			return
		}
		out, err := encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical encoding: % x -> % x", data, out)
		}
	})
}

// FuzzStampedFrame fuzzes the timestamp flag-bit encoding from the
// message side: an arbitrary message must encode-decode to itself, and —
// the byte-identity guarantee freshness rests on — an unstamped message
// must encode to exactly the bytes of the same message with the stamp
// field cleared, independent of whatever stamp a stamped sibling carried.
func FuzzStampedFrame(f *testing.F) {
	f.Add(uint8(KindCorrection), "s", int64(1), 1.5, uint64(0), int64(0))
	f.Add(uint8(KindCorrection), "s", int64(2), -0.5, uint64(9), int64(12345))
	f.Add(uint8(KindHeartbeat), "hb", int64(3), 0.0, uint64(0), int64(1))
	f.Add(uint8(KindResync), "r", int64(4), 7.25, uint64(1), int64(1<<40))

	f.Fuzz(func(t *testing.T, kind uint8, id string, tick int64, val float64, tr uint64, stamp int64) {
		m := &Message{Kind: MessageKind(kind), StreamID: id, Tick: tick, Value: []float64{val}, Trace: tr, Stamp: stamp}
		buf, err := encode(m)
		if err != nil {
			return // invalid kind, oversized id, or negative stamp — rejected, nothing to check
		}
		got, err := decode(buf)
		if err != nil {
			t.Fatalf("encoded message failed to decode: %v", err)
		}
		if got.Kind != m.Kind || got.StreamID != m.StreamID || got.Tick != m.Tick ||
			got.Trace != m.Trace || got.Stamp != m.Stamp || len(got.Value) != 1 {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, m)
		}
		if math.Float64bits(got.Value[0]) != math.Float64bits(val) {
			t.Fatalf("value mismatch: got %v want %v", got.Value[0], val)
		}

		// Clearing the stamp must reproduce the unstamped encoding exactly
		// — no leftover flag bit, no reserved bytes.
		bare := *m
		bare.Stamp = 0
		bareBuf, err := encode(&bare)
		if err != nil {
			t.Fatalf("unstamped sibling failed to encode: %v", err)
		}
		if m.Stamp == 0 && !bytes.Equal(buf, bareBuf) {
			t.Fatalf("stamp-free encode not deterministic: % x vs % x", buf, bareBuf)
		}
		if m.Stamp != 0 {
			if bytes.Equal(buf, bareBuf) {
				t.Fatal("stamped and unstamped encodings are identical")
			}
			if len(buf) != len(bareBuf)+8 {
				t.Fatalf("stamp must cost exactly 8 bytes: %d vs %d", len(buf), len(bareBuf))
			}
			if bareBuf[0] != buf[0]&^0x40 {
				t.Fatalf("stamp flag must be the only kind-byte difference: %x vs %x", bareBuf[0], buf[0])
			}
		}
	})
}
