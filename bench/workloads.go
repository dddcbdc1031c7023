package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kalmanstream/internal/freshness"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/wire"
)

// scale sizes a run. The full scale is the one every published number
// comes from; smoke shrinks the population and the tick periods so all
// four workloads fit a tier-1 test.
type scale struct {
	streams int // pop10k: 10,000, split evenly over conns
	conns   int // 2 = nproc here; never more load-generator threads than that

	floodTicksPerSec int // flood trace length per measured second
	floodWindow      int // flood: ticks between read-your-writes barrier queries

	preloadTicks int // query_flood: ticks of trace applied during set-up
	maxSweeps    int // query_flood: cap on round-robin sweeps (sizes the truth table)

	tickPeriod  time.Duration // paced: one tick of every stream per period
	queryPeriod time.Duration // paced: one query per connection per period

	// window is the slice of a timed phase each metric is computed over;
	// a run reports the median of its windows. Two seconds is paced_full's
	// checkpoint period, so every window holds exactly one checkpoint.
	window time.Duration

	scrapePeriod time.Duration // paced_full: /metrics GET cadence
	setupReps    int           // set-ups per run; setup_s is their median
	sampleReads  int           // streams whose final answers are checked against the serial reference
}

var (
	fullScale = scale{
		streams: 10_000, conns: 2,
		floodTicksPerSec: 400, floodWindow: 2,
		preloadTicks: 500, maxSweeps: 64,
		tickPeriod: 30 * time.Millisecond, queryPeriod: 4 * time.Millisecond,
		window: 2 * time.Second, scrapePeriod: time.Second, setupReps: 3, sampleReads: 200,
	}
	smokeScale = scale{
		streams: 200, conns: 2,
		floodTicksPerSec: 200, floodWindow: 4,
		preloadTicks: 50, maxSweeps: 150,
		tickPeriod: 5 * time.Millisecond, queryPeriod: 2 * time.Millisecond,
		window: 500 * time.Millisecond, scrapePeriod: 250 * time.Millisecond, setupReps: 1, sampleReads: 40,
	}
)

// workloadDef is one of the four fixed workloads.
type workloadDef struct {
	name string
	loop string // "closed" or "open", with its size or rate
	why  string
	op   string // the primary operation ops_per_s and server_cpu_us_per_op count

	full    bool // the deployed flag set instead of a bare server
	preload bool // apply the first preloadTicks during set-up
	stamped bool // corrections carry an origin stamp

	// traceTicks is how many ticks of trace the workload replays at most.
	traceTicks func(sc scale, seconds float64) int
	// plan lists, per connection, the queries the timed phase will issue,
	// in issue order, before any input exists — the truth table is
	// recorded for exactly these.
	plan func(sc scale, pop *population, ticks int, rng *rand.Rand) [][]queryRef
	// drive runs one connection's timed phase.
	drive func(r *runner, ph *phase, cr *connRun)
}

var workloads = []*workloadDef{
	{
		name: "flood_bare", op: "correction",
		loop:       "closed (TCP flow control + a read-your-writes query every 2 ticks), 2 connections, bare server",
		why:        "Write-only saturation: framing, decode, the server lock, lazy advance and the Kalman update do all the work; lock and numerics changes must show here, observability changes must not.",
		traceTicks: func(sc scale, seconds float64) int { return int(seconds * float64(sc.floodTicksPerSec)) },
		plan:       planFlood,
		drive:      (*runner).driveFlood,
	},
	{
		name: "query_flood", op: "query", preload: true,
		loop:       "closed, 2 clients, one query in flight each, bare server preloaded with 500 ticks",
		why:        "Read-only use of the same layers: JSON, two reads and two writes a frame, one predict-only step a query; a query-path change shows here and not in flood_bare.",
		traceTicks: func(sc scale, _ float64) int { return sc.preloadTicks + sc.maxSweeps },
		plan:       planQueryFlood,
		drive:      (*runner).driveQueryFlood,
	},
	{
		name: "paced_bare", op: "correction", stamped: true,
		loop:       "open: 33 ticks/s of every stream + 250 queries/s per connection, bare server",
		why:        "Reads beside writes at a rate the server sustains: a query queues behind its own connection's batches and the other's lock holds, so its latency is the delay a reader sees.",
		traceTicks: pacedTicks,
		plan:       planPaced,
		drive:      (*runner).drivePaced,
	},
	{
		name: "paced_full", op: "correction", stamped: true, full: true,
		loop:       "open: same schedule as paced_bare; WAL, checkpoints, -http stack, 1 scrape/s; crash-recovery epilogue",
		why:        "paced_bare's schedule on the deployed flag set (WAL, checkpoints, -http stack, a scrape a second) plus a crash-recovery epilogue: durability and telemetry-cardinality work shows here only.",
		traceTicks: pacedTicks,
		plan:       planPaced,
		drive:      (*runner).drivePaced,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func pacedTicks(sc scale, seconds float64) int {
	return int(seconds * float64(time.Second) / float64(sc.tickPeriod))
}

// ownedStream draws a seeded-random stream of connection c.
func ownedStream(pop *population, c int, rng *rand.Rand) uint32 {
	lo, _ := pop.owned(c)
	return uint32(lo + rng.Intn(pop.perConn))
}

func planFlood(sc scale, pop *population, ticks int, rng *rand.Rand) [][]queryRef {
	plans := make([][]queryRef, pop.conns)
	for c := range plans {
		for t := sc.floodWindow - 1; t < ticks; t += sc.floodWindow {
			plans[c] = append(plans[c], queryRef{stream: ownedStream(pop, c, rng), tick: uint32(t)})
		}
	}
	return plans
}

// planQueryFlood sweeps each connection's streams round-robin, one tick
// later per sweep, so every query lazily advances one replica by exactly
// one predict-only step.
func planQueryFlood(sc scale, pop *population, _ int, _ *rand.Rand) [][]queryRef {
	plans := make([][]queryRef, pop.conns)
	for c := range plans {
		lo, _ := pop.owned(c)
		plans[c] = make([]queryRef, 0, pop.perConn*sc.maxSweeps)
		for sweep := 0; sweep < sc.maxSweeps; sweep++ {
			for i := 0; i < pop.perConn; i++ {
				plans[c] = append(plans[c], queryRef{stream: uint32(lo + i), tick: uint32(sc.preloadTicks + sweep)})
			}
		}
	}
	return plans
}

// planPaced draws each connection's queries: when each is due (one in
// every query period, jittered) and which own stream it reads, at the
// newest tick the connection will have sent by then.
func planPaced(sc scale, pop *population, ticks int, rng *rand.Rand) [][]queryRef {
	plans := make([][]queryRef, pop.conns)
	s := schedule{tickPeriod: sc.tickPeriod}
	for c := range plans {
		for _, due := range jitteredDues(time.Duration(ticks)*sc.tickPeriod, sc.queryPeriod, rng) {
			plans[c] = append(plans[c], queryRef{ownedStream(pop, c, rng), uint32(s.lastTickSentBy(due)), due})
		}
	}
	return plans
}

// pacedShift is how far connection c's whole schedule lags connection
// 0's: the connections tick out of phase, as independent sources do. (In
// phase, their batches collide on the server's lock at every tick, and
// whether the two handlers then alternate or take turns is settled per
// run: the latency tail had two modes a third apart.)
func pacedShift(sc scale, c int) time.Duration {
	return time.Duration(c) * sc.tickPeriod / time.Duration(sc.conns)
}

// connRun is one connection's state through a timed phase. Its goroutine
// owns everything but ops, which the coordinator reads at half time.
type connRun struct {
	idx  int
	c    *wire.Client
	msg  netsim.Message
	plan []queryRef

	ops      atomic.Int64 // primary operations completed
	sent     int64        // corrections handed to the client
	queries  int64
	failed   int64
	lastTick int // newest tick whose corrections were all sent (-1: none)
	lastRead int // newest tick any query targeted

	lat     []time.Duration // query latency: from due time (open loop) or from send (closed)
	latAt   []time.Duration // when each was due (open loop) or sent (closed), from the phase's start
	rtt     []time.Duration // query round trip from send
	late    []time.Duration // open loop: how late each event started that found the connection idle
	blocked int64           // open loop: events whose predecessor was still waiting on the server
	flush   []time.Duration // open loop: send+flush time of each tick

	spans *spanLog
	err   error // first error, which ends the connection's phase
}

// phase is what the connections of one timed phase share.
type phase struct {
	tr       *genTrace
	chk      *checker
	start    time.Time
	deadline time.Time
	stamp    freshness.Clock // nil: unstamped
}

func (cr *connRun) fail(err error) {
	cr.failed++
	if cr.err == nil {
		cr.err = err
	}
}

// sendTick hands tick t's corrections to the client (which coalesces
// them 64 to a frame) and returns how many there were.
func (cr *connRun) sendTick(ph *phase, t int, stamp int64) (int, error) {
	recs := ph.tr.tickRecords(cr.idx, t)
	for _, rec := range recs {
		cr.msg.StreamID = ph.tr.pop.streams[rec.stream].id
		cr.msg.Tick = int64(rec.tick)
		cr.msg.Value[0] = rec.value
		cr.msg.Stamp = stamp
		if err := cr.c.SendCorrection(&cr.msg); err != nil {
			return 0, fmt.Errorf("conn %d: send tick %d: %w", cr.idx, t, err)
		}
	}
	cr.sent += int64(len(recs))
	cr.lastTick = t
	return len(recs), nil
}

// query issues one query and checks its answer. due is the instant the
// query was scheduled for (open loop) or the zero time (closed loop,
// where latency is the round trip). A planned query has its true
// measurement on record; a barrier does not, and only its shape is
// checked.
func (cr *connRun) query(ph *phase, q queryRef, due time.Time, planned bool) {
	id := cr.spans.begin("query", 0)
	t0 := time.Now()
	ans, err := cr.c.Query(ph.tr.pop.streams[q.stream].id, int64(q.tick))
	t1 := time.Now()
	cr.spans.end(id)
	cr.queries++
	if int(q.tick) > cr.lastRead {
		cr.lastRead = int(q.tick)
	}
	cr.rtt = append(cr.rtt, t1.Sub(t0))
	if due.IsZero() {
		due = t0
	}
	cr.lat = append(cr.lat, t1.Sub(due))
	cr.latAt = append(cr.latAt, due.Sub(ph.start))
	if err != nil {
		cr.fail(fmt.Errorf("conn %d: query %s@%d: %w", cr.idx, ph.tr.pop.streams[q.stream].id, q.tick, err))
		return
	}
	if err := ph.chk.check(q, ans, planned); err != nil {
		cr.failed++
		ph.chk.note(err)
	}
}

// driveFlood replays the trace back to back until it ends or the deadline
// passes. Every floodWindow ticks the connection reads one of its own
// streams at the tick just sent: the round trip is how long a writer
// waits to read its own writes under saturation, and it bounds the data
// in flight to a few ticks, so the backlog — and with it that latency —
// is set by the server's speed rather than by kernel buffer autotuning.
func (r *runner) driveFlood(ph *phase, cr *connRun) {
	next := 0
	for t := 0; t < ph.tr.ticks && cr.err == nil; t++ {
		if time.Now().After(ph.deadline) {
			break
		}
		tick := cr.spans.begin("tick", 0)
		send := cr.spans.begin("send", tick)
		n, err := cr.sendTick(ph, t, 0)
		cr.spans.end(send)
		cr.spans.end(tick)
		if err != nil {
			cr.fail(err)
			return
		}
		cr.ops.Add(int64(n))
		if next < len(cr.plan) && int(cr.plan[next].tick) == t {
			cr.query(ph, cr.plan[next], time.Time{}, true)
			next++
		}
	}
}

// driveQueryFlood issues the planned queries one at a time.
func (r *runner) driveQueryFlood(ph *phase, cr *connRun) {
	for k, q := range cr.plan {
		if cr.err != nil || (k%32 == 0 && time.Now().After(ph.deadline)) {
			return
		}
		cr.query(ph, q, time.Time{}, true)
		cr.ops.Add(1)
	}
}

// drivePaced follows the connection's fixed schedule: a tick's
// corrections stamped at send time and flushed, and independent queries
// for the newest tick already sent, both timed from their due instants.
func (r *runner) drivePaced(ph *phase, cr *connRun) {
	s := &schedule{tickPeriod: r.sc.tickPeriod, ticks: ph.tr.ticks, queryDues: make([]time.Duration, len(cr.plan))}
	for k, q := range cr.plan {
		s.queryDues[k] = q.due
	}
	origin := ph.start.Add(pacedShift(r.sc, cr.idx))
	runSchedule(s, wallClock{origin}, func(e event, started time.Duration, blocked bool) {
		if cr.err != nil {
			return
		}
		if blocked {
			cr.blocked++
		} else {
			cr.late = append(cr.late, started-e.due)
		}
		switch e.kind {
		case evTick:
			tick := cr.spans.begin("tick", 0)
			send := cr.spans.begin("send", tick)
			n, err := cr.sendTick(ph, e.index, ph.stamp())
			cr.spans.end(send)
			if err == nil {
				fl := cr.spans.begin("flush", tick)
				err = cr.c.FlushCorrections()
				cr.spans.end(fl)
			}
			cr.spans.end(tick)
			if err != nil {
				cr.fail(err)
				return
			}
			cr.flush = append(cr.flush, time.Since(origin)-started)
			cr.ops.Add(int64(n))
		case evQuery:
			q := cr.plan[e.index]
			if int(q.tick) > cr.lastTick {
				// The plan and the schedule disagree: a bench bug, and the
				// query would break replica lock-step if sent.
				cr.fail(fmt.Errorf("conn %d: query %d targets tick %d before it was sent (last %d)",
					cr.idx, e.index, q.tick, cr.lastTick))
				return
			}
			cr.query(ph, q, origin.Add(e.due), true)
		}
	})
}

// mark is the coordinator's reading at one instant of a timed phase.
type mark struct {
	at  time.Duration // since the phase's start
	cpu time.Duration // server CPU consumed so far
	ops int64         // primary operations completed so far
}

// timed is what the coordinator measured around one timed phase: a mark
// at the start, one at every window boundary, and one at the end.
type timed struct {
	marks   []mark
	selfCPU time.Duration
	// spansFrom is the first window recorded with spans on (traced runs;
	// the windows before it are the untraced control).
	spansFrom int
}

func (t *timed) wall() time.Duration { return t.marks[len(t.marks)-1].at }

// windows returns the marks that bound the windows: window k runs from
// mark k to mark k+1. The last stretch counts when it is at least half a
// window long (a phase ends a barrier's round trip after its last
// scheduled event, not on a boundary).
func (t *timed) windows(window time.Duration) []mark {
	n := len(t.marks)
	if n > 2 && t.marks[n-1].at-t.marks[n-2].at < window/2 {
		n--
	}
	return t.marks[:n]
}

// runPhase runs every connection's drive function concurrently and marks
// the server's CPU and completed operations at every window boundary,
// plus the generator's own CPU around the whole phase.
func (r *runner) runPhase(w *workloadDef, ph *phase, conns []*connRun, pid int, spansOn *atomic.Bool) (timed, error) {
	var out timed
	takeMark := func() error {
		m := mark{at: time.Since(ph.start)}
		var err error
		if m.cpu, err = procCPU(pid); err != nil {
			return err
		}
		for _, cr := range conns {
			m.ops += cr.ops.Load()
		}
		out.marks = append(out.marks, m)
		return nil
	}
	self0, err := procCPU(0)
	if err != nil {
		return out, err
	}
	var wg sync.WaitGroup
	for _, cr := range conns {
		wg.Add(1)
		go func(cr *connRun) {
			defer wg.Done()
			defer func() {
				// A panic on a connection goroutine would skip main's
				// deferred child cleanup; turn it into the phase's error.
				if p := recover(); p != nil {
					cr.fail(fmt.Errorf("conn %d: panic: %v", cr.idx, p))
				}
			}()
			time.Sleep(time.Until(ph.start))
			w.drive(r, ph, cr)
			if cr.err == nil && cr.lastTick >= 0 {
				// Barrier: the phase ends when the server has applied
				// everything this connection sent.
				lo, _ := ph.tr.pop.owned(cr.idx)
				cr.query(ph, queryRef{stream: uint32(lo), tick: uint32(max(cr.lastTick, cr.lastRead))}, time.Time{}, false)
			}
		}(cr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	time.Sleep(time.Until(ph.start))
	if err := takeMark(); err != nil {
		return out, err
	}
	nWin := int(ph.deadline.Sub(ph.start) / r.sc.window)
	out.spansFrom = nWin
	if r.traced {
		// Spans go on half way, or at once when there is no half way.
		out.spansFrom = nWin / 2
		spansOn.Store(out.spansFrom == 0)
	}
	for k, running := 1, true; running; k++ {
		boundary := time.NewTimer(time.Until(ph.start.Add(time.Duration(k) * r.sc.window)))
		select {
		case <-boundary.C:
		case <-done:
			boundary.Stop()
			running = false
		}
		if err := takeMark(); err != nil {
			return out, err
		}
		if k == out.spansFrom {
			spansOn.Store(true)
		}
	}
	self1, err := procCPU(0)
	if err != nil {
		return out, err
	}
	out.selfCPU = self1 - self0
	var errs []error
	for _, cr := range conns {
		if cr.err != nil {
			errs = append(errs, cr.err)
		}
	}
	return out, errors.Join(errs...)
}
