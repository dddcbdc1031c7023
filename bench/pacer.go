package main

import (
	"math/rand"
	"time"
)

// The open-loop scheduler. A paced connection carries two independent
// event trains — ticks at a fixed rate (send that tick's corrections) and
// queries at seeded-jittered instants — merged in due-time order on one
// goroutine, because a wire.Client is single-threaded. Due times are
// computed from the start instant and the event's index alone, never from
// when the previous event finished: a stalled send makes later events
// start late, and that lateness is charged to their latency, but it never
// moves their due times (no coordinated omission).

type eventKind uint8

const (
	evTick eventKind = iota
	evQuery
)

// event is one scheduled action: the index-th tick or query, due at the
// given offset from the schedule's start.
type event struct {
	kind  eventKind
	index int
	due   time.Duration
}

// schedule enumerates a connection's events in due-time order.
type schedule struct {
	tickPeriod time.Duration
	ticks      int
	queryDues  []time.Duration // ascending

	nextTick, nextQuery int
}

func (s *schedule) tickDue(j int) time.Duration { return time.Duration(j) * s.tickPeriod }

// next returns the next event. On equal due times the tick goes first, so
// a query always finds every tick due at or before it already sent.
func (s *schedule) next() (event, bool) {
	haveTick, haveQuery := s.nextTick < s.ticks, s.nextQuery < len(s.queryDues)
	switch {
	case haveTick && (!haveQuery || s.tickDue(s.nextTick) <= s.queryDues[s.nextQuery]):
		e := event{evTick, s.nextTick, s.tickDue(s.nextTick)}
		s.nextTick++
		return e, true
	case haveQuery:
		e := event{evQuery, s.nextQuery, s.queryDues[s.nextQuery]}
		s.nextQuery++
		return e, true
	}
	return event{}, false
}

// lastTickSentBy is the tick a query due at offset due must target: the
// latest tick whose own due time is not after it.
func (s *schedule) lastTickSentBy(due time.Duration) int {
	return int(due / s.tickPeriod)
}

// jitteredDues places one due time in every period-long slot of span,
// uniformly within the slot: the rate is exactly one per period, and the
// queries keep no fixed phase against the ticks. (On a fixed phase, which
// queries meet a batch and which never do is settled by arithmetic — with
// a query every 4 ms and a tick every 40, exactly every tenth — and the
// latency distribution is a staircase whose steps the percentiles fall
// off.) Every due time is strictly inside span, so every query has a sent
// tick to read.
func jitteredDues(span, period time.Duration, rng *rand.Rand) []time.Duration {
	var dues []time.Duration
	for slot := time.Duration(0); slot < span; slot += period {
		if due := slot + time.Duration(rng.Int63n(int64(period))); due < span {
			dues = append(dues, due)
		}
	}
	return dues
}

// clock is the time source a schedule runs against; tests substitute a
// virtual one.
type clock interface {
	// since returns the time elapsed since the schedule's start.
	since() time.Duration
	// waitUntil returns once since() >= due (at once if already past).
	waitUntil(due time.Duration)
}

// spinMargin is how long before a due time the generator stops sleeping
// and spins. A Go sleep ends on the netpoller's clock, which counts whole
// milliseconds: it overshoots by up to one. Unspun, that would be charged
// to the server as latency. (A longer margin does not buy punctuality on
// two cores: the spinning thread is then preempted more often.)
const spinMargin = time.Millisecond

// wallClock paces against real time from a fixed start instant.
type wallClock struct{ start time.Time }

func (c wallClock) since() time.Duration { return time.Since(c.start) }

func (c wallClock) waitUntil(due time.Duration) {
	if d := due - c.since(); d > spinMargin {
		time.Sleep(d - spinMargin)
	}
	for c.since() < due {
	}
}

// runSchedule drives handle over every event. handle receives the event,
// the offset at which it actually started (≥ event.due) and whether the
// previous event was still running at the due time. A start that is late
// with blocked false is the generator's own lateness (a timer or the
// scheduler); with blocked true the connection was still waiting on the
// server, which is queueing the latency already counts.
func runSchedule(s *schedule, c clock, handle func(e event, started time.Duration, blocked bool)) {
	for {
		e, ok := s.next()
		if !ok {
			return
		}
		blocked := c.since() > e.due
		c.waitUntil(e.due)
		handle(e, c.since(), blocked)
	}
}
