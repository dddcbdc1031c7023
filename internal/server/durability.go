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

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/source"
	"kalmanstream/internal/wal"
)

// SetApplyHook installs fn, called under the stream's shard lock
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

// SetRegisterHook installs fn, called under the shard lock with the
// registration (norm included) before a newly registered stream becomes
// visible; an error aborts the registration. Because the stream's first
// message needs the same lock, its register record always precedes its
// messages in the log. Same contract as SetApplyHook; an adopted
// re-registration changes no durable state and does not fire it, and
// neither does Recover.
func (s *Server) SetRegisterHook(fn func(rec wal.RegisterRecord) error) { s.onRegister = fn }

// Checkpoint takes the checkpoint cut into c; pass it to
// wal.Log.WriteCheckpoint. With every shard locked (in index order)
// no apply or registration is in flight, so the log sequence c.Begin
// reads and the states c.Add copies describe the same instant — every
// record below the sequence is in the states, every record at or above it
// is not. Under the locks the cut copies only numbers: each stream's
// moving state, its exact-answer value and its predictor snapshot. The
// registration is fixed, so the log reads it through the record when it
// encodes, after the locks are released; the sort by ID and a slow
// encode or fsync never stall the data path.
func (s *Server) Checkpoint(c *wal.Cut) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	c.Begin()
	for _, sh := range s.shards {
		for _, st := range sh.order {
			c.Add(st.id, st, wal.Live{Delta: st.delta, Tick: st.tick, LastCorr: st.lastCorr,
				Corrections: st.corrections, LastValueTick: st.lastValueTick}, st.lastValue, st.replica)
		}
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// Registration implements wal.Registered: the stream's registration,
// which never changes once the record exists.
func (st *streamState) Registration() wal.RegisterRecord {
	return wal.RegisterRecord{ID: st.id, Spec: st.spec.Spec, Delta: st.registerDelta, Norm: int(st.norm)}
}

// Recover is the one recovery routine: it replays a log directory into
// the (empty) server — the newest checkpoint's records first, then the
// records at or after its sequence, in log order: a registration
// re-creates its stream, a state restores the stream's replica and
// bookkeeping to the captured values at the record's tick, and a message
// re-applies at the tick the log recorded for it. Call it before
// installing the hooks, so nothing it replays is logged again. Every
// recovered stream starts unowned and last heard at now: it is exactly as
// live as the server is, so restarting never declares the whole
// population stale and blasts resync requests at it. Watchdogs armed per
// stream (SetWatchdog) are left disarmed: on the tick clock the caller
// rolls the replicas up to its tick and re-arms them afterwards.
func (s *Server) Recover(log *wal.Log, now int64) (wal.RecoveryStats, error) {
	var scratch netsim.Message
	var state wal.State
	return log.Restore(func(typ wal.RecordType, tick int64, payload []byte) error {
		switch typ {
		case wal.RecRegister:
			rec, err := wal.DecodeRegister(payload)
			if err != nil {
				return err
			}
			_, err = s.register(rec.ID, rec.Spec, rec.Delta, source.Norm(rec.Norm), false, nil, 0, now)
			return err
		case wal.RecState:
			if err := wal.DecodeState(tick, payload, &state); err != nil {
				return err
			}
			sh, st, err := lock(s, state.ID)
			if err != nil {
				return err
			}
			defer sh.mu.Unlock()
			if err := st.replica.Restore(state.Snapshot); err != nil {
				return fmt.Errorf("server: restoring %s snapshot: %w", state.ID, err)
			}
			st.tick, st.delta, st.lastCorr, st.corrections = state.Tick, state.Delta, state.LastCorr, state.Corrections
			st.lastValueTick = state.LastValueTick
			if len(state.Value) > 0 {
				st.setLastValue(state.Value)
			}
			return nil
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

// ReplayMessage re-applies one logged message during recovery: the
// replica is stepped to the recorded apply tick and the message applied
// without firing the durability hook — replaying a record back into the
// log would double it.
func (s *Server) ReplayMessage(tick int64, m *netsim.Message) error {
	sh, st, err := lock(s, m.StreamID)
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
// refused from then on. It takes every shard lock before it touches the
// hooks, since an ingest or registration in flight reads them under one.
func (s *Server) Reset() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	s.onApply, s.onRegister = nil, nil
	for _, sh := range s.shards {
		for _, st := range sh.order {
			st.dead = true
			s.specs.release(st.spec)
		}
		sh.streams = make(map[string]*streamState)
		sh.order = nil
		sh.size.Store(0)
		sh.mu.Unlock()
	}
	s.stale.Store(0)
}
