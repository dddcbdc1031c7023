package netsim

import (
	"testing"
)

// TestDecodeIntoReusesStorage checks the buffer-reuse contract: decoding
// into a message whose Value capacity suffices and whose StreamID already
// matches must not allocate, and must still round-trip exactly.
func TestDecodeIntoReusesStorage(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: "sensor-07", Tick: 99, Value: []float64{1.5, -2.25, 3}}
	buf, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}

	var dst Message
	dst.Value = make([]float64, 0, 8)
	if err := DecodeInto(&dst, buf); err != nil {
		t.Fatal(err)
	}
	if dst.Kind != m.Kind || dst.StreamID != m.StreamID || dst.Tick != m.Tick {
		t.Fatalf("header mismatch: got %+v want %+v", dst, *m)
	}
	if len(dst.Value) != len(m.Value) {
		t.Fatalf("value len %d, want %d", len(dst.Value), len(m.Value))
	}
	for i := range m.Value {
		if dst.Value[i] != m.Value[i] {
			t.Fatalf("value[%d] = %g, want %g", i, dst.Value[i], m.Value[i])
		}
	}

	// A second decode into the same message must reuse both the Value
	// backing array and the StreamID string.
	prev := &dst.Value[0]
	prevID := dst.StreamID
	m.Value = []float64{4, 5, 6}
	buf2, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(&dst, buf2); err != nil {
		t.Fatal(err)
	}
	if &dst.Value[0] != prev {
		t.Error("DecodeInto reallocated Value despite sufficient capacity")
	}
	if &prevID != &dst.StreamID && prevID != dst.StreamID {
		t.Error("DecodeInto changed StreamID despite identical bytes")
	}
}

// TestCorrectionRoundTripZeroAlloc is the allocation regression guard for
// the hot path: a pooled AppendEncode followed by DecodeInto into a warm
// message must be completely allocation-free.
func TestCorrectionRoundTripZeroAlloc(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: "sensor-01", Tick: 123456, Value: []float64{42.5, -1}}
	dst := &Message{StreamID: "sensor-01", Value: make([]float64, 0, 4)}

	allocs := testing.AllocsPerRun(1000, func() {
		bp := GetBuffer()
		buf, err := m.AppendEncode(*bp)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(dst, buf); err != nil {
			t.Fatal(err)
		}
		*bp = buf[:0]
		PutBuffer(bp)
	})
	if allocs != 0 {
		t.Errorf("correction encode/decode round trip allocated %.1f times per op, want 0", allocs)
	}
	if dst.Tick != m.Tick || dst.Value[1] != -1 {
		t.Fatalf("round trip corrupted message: %+v", dst)
	}
}

// TestDecodeIntoGrowsValue checks the other side of the reuse contract: a
// too-small Value capacity grows instead of truncating.
func TestDecodeIntoGrowsValue(t *testing.T) {
	m := &Message{Kind: KindResync, StreamID: "s", Tick: 7, Value: make([]float64, 12)}
	for i := range m.Value {
		m.Value[i] = float64(i) * 1.25
	}
	buf, err := encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dst := &Message{Value: make([]float64, 0, 2)}
	if err := DecodeInto(dst, buf); err != nil {
		t.Fatal(err)
	}
	if len(dst.Value) != 12 || dst.Value[11] != 11*1.25 {
		t.Fatalf("grown decode wrong: %v", dst.Value)
	}
}
