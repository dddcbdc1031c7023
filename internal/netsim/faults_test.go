package netsim

import (
	"testing"
)

func msgAt(tick int64) *Message {
	return &Message{Kind: KindCorrection, StreamID: "s", Tick: tick, Value: []float64{float64(tick)}}
}

// drive advances the link and sends one message per tick, mirroring the
// simulation loop's Tick-then-Send phase order.
func drive(l *Link, ticks int64, send func(t int64) bool) {
	for t := int64(0); t < ticks; t++ {
		l.Tick()
		if send == nil || send(t) {
			l.Send(msgAt(t))
		}
	}
}

// Reordering under a constant delay must never invert delivery order:
// a reordered message matures one tick later, which lands it in the
// same Tick as its successor, and the queue preserves insertion order
// for equal maturity. This is the delivery-order contract replica
// consistency rests on — a regression here reorders corrections and
// silently corrupts replicas.
func TestReorderUnderDelayPreservesOrder(t *testing.T) {
	for _, delay := range []int{1, 3} {
		var got []int64
		l := NewLink(func(m *Message) { got = append(got, m.Tick) }, LinkConfig{
			DelayTicks:  delay,
			ReorderProb: 0.5,
			Seed:        7,
		})
		drive(l, 200, nil)
		for i := 10; i < delay; i++ {
			l.Tick() // drain
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("delay %d: delivery inverted at %d: %v then %v", delay, i, got[i-1], got[i])
			}
		}
		if len(got) < 150 {
			t.Fatalf("delay %d: only %d of 200 delivered", delay, len(got))
		}
	}
}

// With no base delay, a reordered message slips exactly one tick: it is
// enqueued instead of delivered synchronously and matures on the next
// Tick — still before that tick's own send, so order holds there too.
func TestReorderSlipsExactlyOneTick(t *testing.T) {
	type arrival struct{ sent, arrived int64 }
	var got []arrival
	var now int64
	l := NewLink(func(m *Message) { got = append(got, arrival{m.Tick, now}) }, LinkConfig{
		ReorderProb: 1,
		Seed:        1,
	})
	for now = 0; now < 50; now++ {
		l.Tick()
		l.Send(msgAt(now))
	}
	l.Tick()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for _, a := range got {
		if a.arrived != a.sent+1 {
			t.Fatalf("message sent %d arrived %d, want exactly one tick late", a.sent, a.arrived)
		}
	}
}

// Changing the delay mid-run must not retroactively reschedule queued
// messages: a message already in flight keeps its original maturity,
// so a send after the delay drops CAN overtake it. The chaos harness
// relies on exactly this to model delay spikes; the dedupe/monotonic
// guards upstream exist because of it.
func TestDelayDropLetsLaterSendOvertake(t *testing.T) {
	var got []int64
	l := NewLink(func(m *Message) { got = append(got, m.Tick) }, LinkConfig{DelayTicks: 5})
	l.Tick()
	l.Send(msgAt(0)) // matures at nowLag+5
	l.SetDelayTicks(0)
	l.Tick()
	l.Send(msgAt(1)) // synchronous
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after delay drop got %v, want the tick-1 message first", got)
	}
	for i := 0; i < 5; i++ {
		l.Tick()
	}
	if len(got) != 2 || got[1] != 0 {
		t.Fatalf("spiked message lost: %v", got)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	var got []int64
	l := NewLink(func(m *Message) { got = append(got, m.Tick) }, LinkConfig{
		DuplicateProb: 1,
		Seed:          3,
	})
	drive(l, 10, nil)
	if len(got) != 20 {
		t.Fatalf("delivered %d messages for 10 sends with p(dup)=1", len(got))
	}
	st := l.Stats()
	if st.Messages != 20 {
		t.Fatalf("stats count %d transmissions, want 20", st.Messages)
	}
	if st.Dropped != 0 {
		t.Fatalf("duplication dropped %d", st.Dropped)
	}
}

func TestPartitionDropsUntilHealed(t *testing.T) {
	var got []int64
	l := NewLink(func(m *Message) { got = append(got, m.Tick) }, LinkConfig{})
	drive(l, 5, nil)
	l.SetDown(true)
	if !l.down {
		t.Fatal("Down() false after SetDown(true)")
	}
	drive(l, 5, nil)
	l.SetDown(false)
	drive(l, 5, nil)
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10 (5 before + 5 after heal)", len(got))
	}
	if st := l.Stats(); st.Dropped != 5 {
		t.Fatalf("dropped %d during partition, want 5", st.Dropped)
	}
}

// Setters reshape behaviour mid-run deterministically: the same seed
// and schedule of setter calls produce identical delivery sequences.
func TestDynamicImpairmentsDeterministic(t *testing.T) {
	run := func() []int64 {
		var got []int64
		l := NewLink(func(m *Message) { got = append(got, m.Tick) }, LinkConfig{Seed: 11})
		drive(l, 300, func(t int64) bool {
			switch t {
			case 50:
				l.SetDropProb(0.3)
			case 100:
				l.SetDropProb(0)
				l.SetDelayTicks(2)
			case 150:
				l.SetReorderProb(0.5)
			case 200:
				l.SetDelayTicks(0)
				l.SetReorderProb(0)
				l.SetDuplicateProb(0.2)
			}
			return true
		})
		for i := 0; i < 4; i++ {
			l.Tick()
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
