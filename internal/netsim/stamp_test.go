package netsim

import (
	"bytes"
	"strings"
	"testing"
)

// TestStampRoundTrip pins the stamped encoding: the stamp survives a
// round trip, alone and combined with a trace id, and costs exactly
// eight bytes plus the flag bit.
func TestStampRoundTrip(t *testing.T) {
	cases := []*Message{
		{Kind: KindCorrection, StreamID: "s", Tick: 5, Value: []float64{1.5}, Stamp: 42},
		{Kind: KindCorrection, StreamID: "s", Tick: 5, Value: []float64{1.5}, Trace: 9, Stamp: 1 << 50},
		{Kind: KindHeartbeat, StreamID: "hb", Tick: 100, Stamp: 1},
		{Kind: KindResync, StreamID: "r", Tick: 7, Value: []float64{1, 2, 3}, Stamp: 123456789},
	}
	for _, m := range cases {
		buf, err := encode(m)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if len(buf) != m.EncodedSize() {
			t.Fatalf("%+v: encoded %d bytes, EncodedSize says %d", m, len(buf), m.EncodedSize())
		}
		got, err := decode(buf)
		if err != nil {
			t.Fatalf("%+v: decode: %v", m, err)
		}
		if got.Stamp != m.Stamp || got.Trace != m.Trace || got.Tick != m.Tick || got.StreamID != m.StreamID {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, m)
		}
	}
}

// TestUnstampedEncodingUnchanged is the byte-identity guarantee: a
// message without a stamp must encode to exactly the bytes it encoded
// to before the stamp field existed (same layout, no flag bit).
func TestUnstampedEncodingUnchanged(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: "s1", Tick: 3, Value: []float64{2.5}}
	buf, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built pre-freshness encoding:
	// kind(1) idLen(2) id tick(8) valLen(2) value(8)
	want := []byte{
		byte(KindCorrection),
		0, 2, 's', '1',
		0, 0, 0, 0, 0, 0, 0, 3,
		0, 1,
		0x40, 0x04, 0, 0, 0, 0, 0, 0, // float64(2.5)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("unstamped encoding drifted:\n got % x\nwant % x", buf, want)
	}
}

// TestStampCanonicalForm checks the decoder rejects the ambiguous
// forms: a stamp flag with a zero or negative stamp.
func TestStampCanonicalForm(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: "s", Tick: 1, Value: []float64{1}, Stamp: 7}
	buf, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out the stamp bytes (right after the kind byte) but keep the flag.
	for i := 1; i <= 8; i++ {
		buf[i] = 0
	}
	if _, err := decode(buf); err == nil || !strings.Contains(err.Error(), "non-positive stamp") {
		t.Fatalf("zero-stamp flagged message accepted (err=%v)", err)
	}
	// A negative stamp (top bit set) is equally non-canonical.
	buf[1] = 0x80
	if _, err := decode(buf); err == nil || !strings.Contains(err.Error(), "non-positive stamp") {
		t.Fatalf("negative-stamp message accepted (err=%v)", err)
	}
	// And the encoder refuses to produce one.
	m.Stamp = -1
	if _, err := encode(m); err == nil {
		t.Fatal("encoder accepted a negative stamp")
	}
}

// TestStampedRoundTripZeroAlloc extends the hot-path allocation guard
// to stamped messages: carrying a timestamp must not cost the encode or
// decode path a single allocation either.
func TestStampedRoundTripZeroAlloc(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: "sensor-01", Tick: 123456, Value: []float64{42.5, -1}, Stamp: 987654321}
	dst := &Message{StreamID: "sensor-01", Value: make([]float64, 0, 4)}

	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = m.AppendEncode(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(dst, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("stamped round trip allocated %.1f times per op, want 0", allocs)
	}
	if dst.Stamp != m.Stamp {
		t.Fatalf("stamp lost in round trip: %d", dst.Stamp)
	}
}

// TestPutMessageClearsStamp guards the pool hygiene: a recycled message
// must not leak its previous stamp into the next send.
func TestPutMessageClearsStamp(t *testing.T) {
	m := GetMessage()
	m.Kind = KindCorrection
	m.StreamID = "s"
	m.Stamp = 99
	m.Trace = 3
	PutMessage(m)
	if m.Stamp != 0 || m.Trace != 0 {
		t.Fatalf("PutMessage left stamp=%d trace=%d", m.Stamp, m.Trace)
	}
}
