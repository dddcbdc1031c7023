package netsim

import (
	"testing"

	"kalmanstream/internal/trace"
)

// TestTraceIDRoundTrip checks the in-band trace extension: a nonzero
// trace ID survives encode/decode, an untraced message's
// encoding is byte-identical to the pre-trace format, and the two forms
// never confuse each other.
func TestTraceIDRoundTrip(t *testing.T) {
	traced := &Message{Kind: KindCorrection, StreamID: "s-1", Tick: 42, Value: []float64{1.5, -2}, Trace: 0xABCDEF0123456789}
	plain := &Message{Kind: KindCorrection, StreamID: "s-1", Tick: 42, Value: []float64{1.5, -2}}

	bt, err := encode(traced)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := encode(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt) != len(bp)+8 {
		t.Fatalf("traced encoding is %d bytes, want %d (plain %d + 8)", len(bt), len(bp)+8, len(bp))
	}
	if traced.EncodedSize() != len(bt) || plain.EncodedSize() != len(bp) {
		t.Fatal("EncodedSize disagrees with AppendEncode")
	}
	// The untraced encoding must not carry the flag bit — byte-for-byte
	// compatible with the original format.
	if bp[0]&0x80 != 0 {
		t.Fatal("untraced message encoded with the traced flag")
	}

	got, err := decode(bt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != traced.Trace || got.Tick != 42 || got.StreamID != "s-1" || got.Value[1] != -2 {
		t.Fatalf("traced round trip mismatch: %+v", got)
	}

	// Decoding a plain message into a previously-traced target must
	// clear the trace ID.
	if err := DecodeInto(got, bp); err != nil {
		t.Fatal(err)
	}
	if got.Trace != 0 {
		t.Fatalf("plain decode left stale trace id %d", got.Trace)
	}

	// A flagged message with a zero trace ID is non-canonical and must
	// be rejected.
	bad := append([]byte{bt[0]}, make([]byte, 8)...)
	bad = append(bad, bt[9:]...)
	if _, err := decode(bad); err == nil {
		t.Fatal("decoder accepted traced flag with zero trace id")
	}
}

// TestTracedRoundTripZeroAlloc extends the hot-path allocation guard to
// traced messages: carrying the ID must stay allocation-free.
func TestTracedRoundTripZeroAlloc(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: "sensor-01", Tick: 9, Value: []float64{1.25}, Trace: 77}
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
		t.Errorf("traced round trip allocated %.1f times per op, want 0", allocs)
	}
	if dst.Trace != 77 {
		t.Fatalf("trace id lost: %+v", dst)
	}
}

// TestLinkTransitTracing drives traced messages across impaired links
// and checks the journal sees the full transit story: immediate
// delivery, delayed enqueue+delivery, and drops.
func TestLinkTransitTracing(t *testing.T) {
	j := trace.NewJournal(2, 64)
	j.SetEnabled(true)

	var delivered []*Message
	recv := func(m *Message) { delivered = append(delivered, m) }

	// Immediate link.
	l := NewLink(recv, LinkConfig{Trace: j})
	l.Send(&Message{Kind: KindCorrection, StreamID: "a", Tick: 1, Value: []float64{1}, Trace: 10})
	evs := j.StreamEvents("a")
	if len(evs) != 1 || evs[0].Outcome != trace.OutcomeDelivered || evs[0].TraceID != 10 {
		t.Fatalf("immediate link events = %+v", evs)
	}
	if int(evs[0].Value) != (&Message{Kind: KindCorrection, StreamID: "a", Tick: 1, Value: []float64{1}, Trace: 10}).EncodedSize() {
		t.Fatalf("link event bytes = %v", evs[0].Value)
	}

	// Delayed link: enqueue now, deliver after DelayTicks.
	ld := NewLink(recv, LinkConfig{DelayTicks: 2, Trace: j})
	ld.Send(&Message{Kind: KindCorrection, StreamID: "b", Tick: 1, Value: []float64{1}, Trace: 11})
	ld.Tick()
	if evs := j.StreamEvents("b"); len(evs) != 1 || evs[0].Outcome != trace.OutcomeEnqueued {
		t.Fatalf("after 1 tick: %+v", evs)
	}
	ld.Tick()
	evs = j.StreamEvents("b")
	if len(evs) != 2 || evs[1].Outcome != trace.OutcomeDelivered || evs[1].TraceID != 11 {
		t.Fatalf("after 2 ticks: %+v", evs)
	}

	// Lossy link: with DropProb 1 every send records a drop.
	lx := NewLink(recv, LinkConfig{DropProb: 1, Seed: 7, Trace: j})
	lx.Send(&Message{Kind: KindCorrection, StreamID: "c", Tick: 1, Value: []float64{1}, Trace: 12})
	if evs := j.StreamEvents("c"); len(evs) != 1 || evs[0].Outcome != trace.OutcomeDropped {
		t.Fatalf("drop events = %+v", evs)
	}

	// Untraced messages must record nothing even with the journal on.
	before := j.Recorded()
	l.Send(&Message{Kind: KindCorrection, StreamID: "a", Tick: 2, Value: []float64{1}})
	if j.Recorded() != before {
		t.Fatal("untraced message recorded a transit event")
	}
}
