// The staleness watchdog: the server-side half of the fault-recovery
// loop. The gate's heartbeat policy promises that a healthy stream is
// never silent for more than HeartbeatEvery ticks; a stream silent past
// its deadline therefore implies message loss or a partition, and the
// server's replica may be diverging without anything noticing. The
// watchdog detects that condition per stream, surfaces it (the record's
// stale verdict and episode count, a trace event), and issues resync
// requests upstream until a correction, resync, or heartbeat arrives and
// clears it. There is one pass, ScanSilent, and one measure of silence,
// now − heard, in the clock's unit: ticks since the last applied
// message's tick on the tick clock, nanoseconds since the stream was last
// heard on the wall clock. See DESIGN.md, "Fault tolerance & recovery".

package server

import "kalmanstream/internal/trace"

// SetStaleAfter puts the watchdog on a wall clock: every stream registered
// or recovered from now on gets a deadline of that many nanoseconds (0 =
// none), and trace events report seconds. Call it before Register.
func (s *Server) SetStaleAfter(deadline int64) { s.staleAfter, s.unit = deadline, 1e-9 }

// SetWatchdog arms one stream's watchdog on the tick clock: once silent
// (no correction, resync or heartbeat applied) for more than deadline
// ticks, ScanSilent marks it stale and names owner, the push target of its
// KindResyncRequest — at once, then every deadline while the silence
// lasts. owner may be nil (detect-only); deadline <= 0 disarms. Silence
// counts from the last applied message's tick, also for a stream just
// recovered from the log: a restart makes no stream more or less silent.
func (s *Server) SetWatchdog(id string, deadline int64, owner any) error {
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	st.wdDeadline, st.owner = deadline, owner
	st.heard = max(st.heard, st.lastCorr+1)
	return nil
}

// StaleCount returns how many streams the watchdog currently has marked
// stale — the streams_stale gauge's value.
func (s *Server) StaleCount() int64 { return s.stale.Load() }

// watchdogEvent records one watchdog transition, silence and deadline
// converted from the clock's unit to the journal's (ticks, or seconds).
func (s *Server) watchdogEvent(st *streamState, outcome trace.Outcome, silent int64) {
	if s.tr.Enabled() {
		s.tr.Record(trace.Event{
			StreamID: st.id,
			Tick:     st.tick,
			Stage:    trace.StageWatchdog,
			Outcome:  outcome,
			Value:    float64(silent) * s.unit,
			Aux:      float64(st.wdDeadline) * s.unit,
		})
	}
}

// watchdogCheck is the one mark-stale / request-again decision, under the
// shard lock: a stream silent past its deadline is marked (once per
// episode), and a resync request is due now and again every deadline's
// worth of continued silence — the feedback channel may itself be lossy —
// as long as there is someone to ask. Both are journaled here; marked
// reports a new verdict, request one the caller delivers.
func (s *Server) watchdogCheck(st *streamState, silent int64) (marked, request bool) {
	if silent <= st.wdDeadline {
		return false, false
	}
	if !st.stale {
		st.stale, marked = true, true
		st.staleEpisodes++
		s.stale.Add(1)
		s.watchdogEvent(st, trace.OutcomeStale, silent)
	}
	if st.owner != nil && silent-st.wdLastReq >= st.wdDeadline {
		st.wdLastReq = silent
		request = true
		s.watchdogEvent(st, trace.OutcomeResyncRequested, silent)
	}
	return marked, request
}

// Silent is one finding of the scan: a stream silent For (in the clock's
// unit) past its deadline, that this scan Marked stale, that owes its
// source a resync request on Owner (nil when none is due), or both.
type Silent struct {
	ID     string
	For    int64
	Marked bool
	Owner  any
}

// ScanSilent is the watchdog pass, on either clock: every armed stream is
// checked against its deadline, one shard-lock hold per shard. Nothing is
// pushed under a lock (a slow peer must not stall a shard): the caller
// sends the KindResyncRequests the findings name.
func (s *Server) ScanSilent(now int64) (found []Silent) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, st := range sh.order {
			if st.wdDeadline <= 0 {
				continue
			}
			marked, request := s.watchdogCheck(st, now-st.heard)
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

// watchdogRecover clears a stale mark when traffic arrives at now, under
// the shard lock, before the ingest body moves heard.
func (s *Server) watchdogRecover(st *streamState, now int64) {
	st.stale = false
	s.stale.Add(-1)
	st.wdLastReq = 0
	s.watchdogEvent(st, trace.OutcomeRecovered, now-st.heard)
}
