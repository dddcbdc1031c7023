// Durability support: the hooks and restore paths the write-ahead log
// (internal/wal) uses to persist and recover the replica cache. The
// server owns no files — it exposes apply and register hooks fired under
// the shard lock (so a stream's records are logged in exactly the order
// they took effect), the checkpoint cut, and the one recovery routine;
// the wal package owns the files, and core.Node decides when to sync,
// checkpoint and recover.

package server

import (
	"fmt"
	"sort"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/wal"
)

// SetApplyHook installs fn, called under the stream's shard write lock
// after every successfully applied message (corrections, resyncs, and
// heartbeats alike — heartbeats move lastCorr, so recovery must replay
// them to reproduce watchdog state exactly). tick is the stream's
// server tick at apply time. fn must be cheap, non-blocking, and must
// not call back into the server; the wal group-commit append (buffer
// only, no I/O) satisfies that. Install before traffic; nil disarms.
//
// Replay paths (ReplayMessage) never fire the hook: recovery must not
// re-log the records it is reading.
func (s *Server) SetApplyHook(fn func(tick int64, m *netsim.Message)) { s.onApply = fn }

// SetRegisterHook installs fn, called under the shard write lock with the
// registration (norm included) before a newly registered stream becomes
// visible; an error aborts the registration. Because the stream's first
// message needs the same lock, its register record always precedes its
// messages in the log. Same contract as SetApplyHook; an adopted
// re-registration changes no durable state and does not fire it, and
// neither does Recover.
func (s *Server) SetRegisterHook(fn func(rec wal.RegisterRecord) error) { s.onRegister = fn }

// Checkpoint takes the checkpoint cut: with every shard read-locked (in
// index order) no apply or registration is in flight, so log.Seq() and
// the captured stream states, sorted by ID, describe the same instant —
// every record below Seq is in the states, every record at or above it is
// not. The caller writes the checkpoint after the locks are released, so
// a slow fsync never stalls the data path.
func (s *Server) Checkpoint(log *wal.Log) *wal.Checkpoint {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	c := &wal.Checkpoint{Seq: log.Seq(), Streams: make([]wal.StreamState, 0, s.Len())}
	for _, sh := range s.shards {
		for _, st := range sh.order {
			cs := wal.StreamState{
				ID:            st.id,
				Spec:          st.spec,
				RegisterDelta: st.registerDelta,
				Delta:         st.delta,
				Norm:          int(st.norm),
				Tick:          st.tick,
				LastCorr:      st.lastCorr,
				Corrections:   st.corrections,
				LastValueTick: st.lastValueTick,
			}
			if st.lastValue != nil {
				cs.LastValue = append([]float64(nil), st.lastValue...)
			}
			if snap, ok := st.replica.(predictor.Snapshotter); ok {
				cs.Snapshot = snap.Snapshot()
			}
			c.Streams = append(c.Streams, cs)
		}
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	sort.Slice(c.Streams, func(i, j int) bool { return c.Streams[i].ID < c.Streams[j].ID })
	return c
}

// Recover is the one recovery routine: it replays a log directory into
// the (empty) server — the newest checkpoint restores every stream
// wholesale, then the records at or after its sequence replay in log
// order: registrations re-create their stream, messages re-apply at the
// tick the log recorded for them. Call it before installing the hooks, so
// nothing it replays is logged again. Every recovered stream starts
// unowned and last heard at now: it is exactly as live as the server is,
// so restarting never declares the whole population stale and blasts
// resync requests at it. Watchdogs armed per stream (SetWatchdog) are left
// disarmed: on the tick clock the caller rolls the replicas up to its tick
// and re-arms them afterwards.
func (s *Server) Recover(log *wal.Log, now int64) (wal.RecoveryStats, error) {
	var scratch netsim.Message
	return log.Restore(
		func(c *wal.Checkpoint) error {
			for _, cs := range c.Streams {
				if err := s.RestoreStream(cs, now); err != nil {
					return err
				}
			}
			return nil
		},
		func(typ wal.RecordType, tick int64, payload []byte) error {
			switch typ {
			case wal.RecRegister:
				rec, err := wal.DecodeRegister(payload)
				if err != nil {
					return err
				}
				_, err = s.register(rec.ID, rec.Spec, rec.Delta, source.Norm(rec.Norm), false, nil, 0, now)
				return err
			case wal.RecMessage:
				if err := netsim.DecodeInto(&scratch, payload); err != nil {
					return err
				}
				return s.ReplayMessage(tick, &scratch)
			default:
				return fmt.Errorf("server: unexpected wal record type %d", typ)
			}
		})
}

// RestoreStream re-creates one stream from a checkpoint state: the
// replica is rebuilt from the registered spec, its snapshot restored,
// and every piece of server bookkeeping set to the captured values.
// now is when the stream counts as last heard (see Recover).
func (s *Server) RestoreStream(cs wal.StreamState, now int64) error {
	st, err := s.register(cs.ID, cs.Spec, cs.RegisterDelta, source.Norm(cs.Norm), false, nil, cs.Tick, now)
	if err != nil {
		return err
	}
	st.sh.mu.Lock()
	defer st.sh.mu.Unlock()
	st.delta = cs.Delta
	st.lastCorr = cs.LastCorr
	st.corrections = cs.Corrections
	st.lastValueTick = cs.LastValueTick
	if len(cs.LastValue) > 0 {
		st.lastValue = append([]float64(nil), cs.LastValue...)
	}
	if len(cs.Snapshot) > 0 {
		snap, ok := st.replica.(predictor.Snapshotter)
		if !ok {
			return fmt.Errorf("server: %s predictor (%s) cannot restore snapshots", cs.ID, st.replica.Name())
		}
		if err := snap.Restore(cs.Snapshot); err != nil {
			return fmt.Errorf("server: restoring %s snapshot: %w", cs.ID, err)
		}
	}
	return nil
}

// ReplayMessage re-applies one logged message during recovery: the
// replica is stepped to the recorded apply tick and the message applied
// without firing the durability hook — replaying a record back into the
// log would double it.
func (s *Server) ReplayMessage(tick int64, m *netsim.Message) error {
	sh, st, err := s.lock(m.StreamID)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	return s.applyAt(sh, st, tick, m, false)
}

// Reset drops every stream and disarms the durability hooks while keeping
// telemetry, trace and the watchdog's deadline — the in-process stand-in for a
// crashed server about to recover from its log, which has no log to
// append to until recovery re-arms them. A Ref to a dropped stream is
// refused from then on.
func (s *Server) Reset() {
	s.onApply, s.onRegister = nil, nil
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, st := range sh.order {
			st.dead = true
		}
		sh.streams = make(map[string]*streamState)
		sh.order = nil
		sh.size.Store(0)
		sh.mu.Unlock()
	}
	s.stale.Store(0)
}
