// The staleness watchdog: the server-side half of the fault-recovery
// loop. The gate's heartbeat policy promises that a healthy stream is
// never silent for more than HeartbeatEvery ticks; a stream silent past
// its deadline therefore implies message loss or a partition, and the
// server's replica may be diverging without anything noticing. The
// watchdog detects that condition per stream, surfaces it (the record's
// stale verdict, the stale hook, a trace event), and issues resync
// requests upstream until a correction, resync, or heartbeat arrives and
// clears it. The transitions are written once and measure silence in the
// driver's unit: ticks since the last applied message on the global clock
// (checked as the replica steps), nanoseconds since the stream was last
// heard for a source on its own clock, whose tick counter stands still
// while it is silent (checked by ScanSilent). See DESIGN.md, "Fault
// tolerance & recovery".

package server

import (
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/trace"
)

// SetWatchdog arms the tick watchdog for a stream: once the stream
// has been silent (no correction, resync, or heartbeat applied) for more
// than deadlineTicks ticks it is marked stale, and a KindResyncRequest
// message is handed to feedback — once immediately, then again every
// deadlineTicks while the silence lasts, so a lost request does not
// strand the stream. feedback may be nil (detect-only mode: the stream
// is still marked and counted). deadlineTicks <= 0 disarms.
//
// feedback is invoked with the stream's shard lock held; it must not
// call back into the server. Handing the message to a netsim.Link whose
// receiver is the source's HandleFeedback satisfies that.
func (s *Server) SetWatchdog(id string, deadlineTicks int64, feedback func(*netsim.Message)) error {
	sh, st, err := s.lock(id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	st.wdDeadline = deadlineTicks
	st.feedback = feedback
	return nil
}

// WatchdogDeadline returns the stream's armed deadline (0 = disarmed).
func (s *Server) WatchdogDeadline(id string) (int64, error) {
	sh, st, err := s.get(id)
	if err != nil {
		return 0, err
	}
	defer sh.mu.RUnlock()
	return st.wdDeadline, nil
}

// StaleCount returns how many streams the watchdog currently has marked
// stale — the streams_stale gauge's value.
func (s *Server) StaleCount() int64 { return s.stale.Load() }

// StaleStreams returns the IDs of streams currently marked stale, in
// unspecified order.
func (s *Server) StaleStreams() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, st := range sh.streams {
			if st.stale {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// watchdogEvent records one watchdog transition; silent and deadline are
// in the driver's unit, unit its size in the unit the journal reports
// (1 for ticks, 1e-9 for nanoseconds → seconds).
func (s *Server) watchdogEvent(st *streamState, outcome trace.Outcome, silent, deadline int64, unit float64) {
	if s.tr.Enabled() {
		s.tr.Record(trace.Event{
			StreamID: st.id,
			Tick:     st.tick,
			Stage:    trace.StageWatchdog,
			Outcome:  outcome,
			Value:    float64(silent) * unit,
			Aux:      float64(deadline) * unit,
		})
	}
}

// watchdogCheck is the one mark-stale / request-again decision, under the
// shard write lock: a stream silent past the deadline is marked (once per
// episode), and a resync request is due now and again every deadline's
// worth of continued silence — the feedback channel may itself be lossy —
// as long as there is someone to ask. Both are journaled here, for either
// clock; marked reports a new verdict, request one the caller delivers.
func (s *Server) watchdogCheck(st *streamState, silent, deadline int64, unit float64) (marked, request bool) {
	if silent <= deadline {
		return false, false
	}
	if !st.stale {
		st.stale, marked = true, true
		s.stale.Add(1)
		if s.onStale != nil {
			s.onStale(st.id)
		}
		s.watchdogEvent(st, trace.OutcomeStale, silent, deadline, unit)
	}
	if (st.feedback != nil || st.owner != nil) && silent-st.wdLastReq >= deadline {
		st.wdLastReq = silent
		request = true
		s.watchdogEvent(st, trace.OutcomeResyncRequested, silent, deadline, unit)
	}
	return marked, request
}

// watchdogTick runs once per armed stream per tick (from stepTo, after the
// replica stepped). It is a single comparison for a healthy stream.
func (s *Server) watchdogTick(st *streamState) {
	silent := st.tick - 1 - st.lastCorr
	if _, request := s.watchdogCheck(st, silent, st.wdDeadline, 1); !request {
		return
	}
	st.feedback(&netsim.Message{
		Kind:     netsim.KindResyncRequest,
		StreamID: st.id,
		Tick:     st.tick,
	})
}

// Silent is one finding of the wall-clock scan: a stream silent For
// nanoseconds, past the deadline, that this scan Marked stale, that owes
// its source a resync request on Owner (nil when none is due), or both.
type Silent struct {
	ID     string
	For    int64
	Marked bool
	Owner  any
}

// ScanSilent is the watchdog pass for sources on their own clocks: every
// stream not heard from for more than deadline nanoseconds before now is
// checked, one shard-lock hold per shard. Nothing is pushed under a lock
// (a slow peer must not stall a shard): the caller sends the requests the
// findings name.
func (s *Server) ScanSilent(now, deadline int64) (found []Silent) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, st := range sh.order {
			marked, request := s.watchdogCheck(st, now-st.heard, deadline, 1e-9)
			if marked || request {
				f := Silent{ID: st.id, For: now - st.heard, Marked: marked}
				if request {
					f.Owner = st.owner
				}
				found = append(found, f)
			}
		}
		sh.mu.Unlock()
	}
	return found
}

// ReleaseOwner detaches a closing connection from the streams it owns so
// the watchdog stops asking a dead socket for resyncs. The streams
// themselves — replica, tick, verdict — survive: a reconnect re-registers
// and adopts them.
func (s *Server) ReleaseOwner(owner any) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, st := range sh.order {
			if st.owner == owner {
				st.owner = nil
			}
		}
		sh.mu.Unlock()
	}
}

// watchdogRecover clears the stale mark when traffic arrives, under the
// shard write lock (called from the apply body).
func (s *Server) watchdogRecover(st *streamState) {
	if !st.stale {
		return
	}
	st.stale = false
	s.stale.Add(-1)
	st.wdLastReq = 0
	s.watchdogEvent(st, trace.OutcomeRecovered, st.tick-1-st.lastCorr, st.wdDeadline, 1)
}
