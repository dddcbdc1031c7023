package main

import (
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a virtual time source: waiting jumps straight to the due
// time, and handlers advance it by however long they "take".
type fakeClock struct{ now time.Duration }

func (c *fakeClock) since() time.Duration { return c.now }
func (c *fakeClock) waitUntil(due time.Duration) {
	if c.now < due {
		c.now = due
	}
}

func TestScheduleOrderAndTies(t *testing.T) {
	ms := time.Millisecond
	s := &schedule{tickPeriod: 10 * ms, ticks: 2, queryDues: []time.Duration{0, 4 * ms, 8 * ms, 12 * ms}}
	var got []event
	for {
		e, ok := s.next()
		if !ok {
			break
		}
		got = append(got, e)
	}
	want := []event{{evTick, 0, 0}, {evQuery, 0, 0}, {evQuery, 1, 4 * ms}, {evQuery, 2, 8 * ms}, {evTick, 1, 10 * ms}, {evQuery, 3, 12 * ms}}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v (ticks go first on equal due times)", i, got[i], want[i])
		}
	}
}

func TestQueryTargetsNewestSentTick(t *testing.T) {
	s := &schedule{tickPeriod: 10 * time.Millisecond}
	for _, c := range []struct {
		due  time.Duration
		want int
	}{{0, 0}, {9 * time.Millisecond, 0}, {10 * time.Millisecond, 1}, {39999 * time.Microsecond, 3}} {
		if got := s.lastTickSentBy(c.due); got != c.want {
			t.Errorf("lastTickSentBy(%v) = %d, want %d", c.due, got, c.want)
		}
	}
}

// One query per period-long slot, inside its slot, strictly inside the
// span the ticks cover, the same for the same seed.
func TestJitteredDues(t *testing.T) {
	ms := time.Millisecond
	dues := jitteredDues(40*ms, 4*ms, rand.New(rand.NewSource(1)))
	if len(dues) != 10 {
		t.Fatalf("%d dues, want one per slot = 10", len(dues))
	}
	for k, due := range dues {
		if slot := time.Duration(k) * 4 * ms; due < slot || due >= slot+4*ms {
			t.Errorf("due %d = %v, outside its slot [%v, %v)", k, due, slot, slot+4*ms)
		}
	}
	again := jitteredDues(40*ms, 4*ms, rand.New(rand.NewSource(1)))
	for k := range dues {
		if dues[k] != again[k] {
			t.Fatalf("same seed, different dues: %v vs %v", dues, again)
		}
	}
	// A span that ends inside the last slot keeps only dues inside the span.
	for _, due := range jitteredDues(10*ms, 4*ms, rand.New(rand.NewSource(2))) {
		if due >= 10*ms {
			t.Errorf("due %v is not inside the 10ms span", due)
		}
	}
}

// A stalled send delays the events behind it but never their due times:
// the lateness is visible, the schedule does not drift.
func TestStallDelaysStartsNotDueTimes(t *testing.T) {
	ms := time.Millisecond
	s := &schedule{tickPeriod: 10 * ms, ticks: 5}
	for k := 0; k < 12; k++ {
		s.queryDues = append(s.queryDues, 2*ms+time.Duration(k)*4*ms)
	}
	clk := &fakeClock{}
	type seen struct {
		e       event
		started time.Duration
		blocked bool
	}
	var log []seen
	runSchedule(s, clk, func(e event, started time.Duration, blocked bool) {
		log = append(log, seen{e, started, blocked})
		if e.kind == evTick && e.index == 1 {
			clk.now += 13 * ms // the send at 10ms stalls until 23ms
		}
	})
	if len(log) != 17 {
		t.Fatalf("handled %d events, want 17", len(log))
	}
	for _, l := range log {
		var want time.Duration
		if l.e.kind == evTick {
			want = time.Duration(l.e.index) * 10 * ms
		} else {
			want = 2*ms + time.Duration(l.e.index)*4*ms
		}
		if l.e.due != want {
			t.Errorf("%v %d due at %v, want %v: due times must depend on the index alone", l.e.kind, l.e.index, l.e.due, want)
		}
		if l.started < l.e.due {
			t.Errorf("%v %d started at %v, before its due time %v", l.e.kind, l.e.index, l.started, l.e.due)
		}
	}
	// Events due during the stall (queries at 10, 14, 18, 22ms and the tick
	// at 20ms) start late, at 23ms, and are marked blocked…
	late := 0
	for _, l := range log {
		if l.e.due > 10*ms && l.e.due < 23*ms {
			late++
			if l.started != 23*ms || !l.blocked {
				t.Errorf("%v %d (due %v) started %v blocked=%v, want 23ms and blocked", l.e.kind, l.e.index, l.e.due, l.started, l.blocked)
			}
		}
	}
	if late != 4 {
		t.Errorf("%d events fell inside the stall, want 4", late)
	}
	// …and the schedule is back on time right after it.
	for _, l := range log {
		if l.e.due >= 23*ms && (l.started != l.e.due || l.blocked) {
			t.Errorf("%v %d (due %v) started %v blocked=%v after the stall, want on time", l.e.kind, l.e.index, l.e.due, l.started, l.blocked)
		}
	}
}

func TestWallClockWaitsUntilDue(t *testing.T) {
	c := wallClock{time.Now()}
	c.waitUntil(3 * time.Millisecond)
	if got := c.since(); got < 3*time.Millisecond {
		t.Errorf("returned after %v, before the due time", got)
	}
}
