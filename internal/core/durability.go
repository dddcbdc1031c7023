// Durability for the in-process System: when SystemConfig.WALDir is
// set, every applied message is appended to a write-ahead log (synced
// at each tick boundary) and the server can be killed and rebuilt from
// it mid-run — the primitive behind the chaos harness's kill/restart
// fault. The sources, links, auditor, and clock live outside the
// server and survive a restart, exactly as remote sources survive a
// real server crash.
package core

import (
	"fmt"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/wal"
)

// openWAL wires the durability layer during NewSystem: opens (and
// repairs) the directory and installs the apply hook. Recovery of
// pre-existing state is not automatic — a System's streams exist only
// after Attach, so cross-process recovery re-attaches first and the
// in-process crash primitive is RestartServer.
func (s *System) openWAL(cfg SystemConfig) error {
	s.walOpts = wal.Options{Dir: cfg.WALDir, Registry: cfg.Telemetry}
	log, err := wal.Open(s.walOpts)
	if err != nil {
		return err
	}
	s.walCkptEvery = cfg.CheckpointEveryTicks
	s.armWAL(log)
	return nil
}

// armWAL points the durability hook at log. The append is buffer-only
// (group commit) and runs under the shard lock, so log order is exactly
// apply order; Advance's tick-boundary Sync makes it durable.
func (s *System) armWAL(log *wal.Log) {
	s.walLog = log
	s.srv.SetApplyHook(func(tick int64, m *netsim.Message) {
		if err := log.AppendMessage(tick, m); err != nil {
			panic(fmt.Sprintf("core: wal append failed: %v", err))
		}
	})
}

// WAL returns the system's write-ahead log (nil when WALDir was unset).
func (s *System) WAL() *wal.Log { return s.walLog }

// SyncWAL flushes and fsyncs the log's group-commit buffer. Advance
// calls it at every tick boundary; call it directly only around an
// out-of-band durability point (the chaos harness syncs before a
// scheduled kill so the restart is deterministically lossless).
func (s *System) SyncWAL() error {
	if s.walLog == nil {
		return fmt.Errorf("core: system has no write-ahead log")
	}
	return s.walLog.Sync()
}

// CheckpointWAL writes a full predictor-snapshot checkpoint and prunes
// the log prefix it covers. Call between ticks — after an Advance's
// Observe calls have finished and before the next Advance — so the
// captured states and the captured sequence agree. Advance does this
// automatically every CheckpointEveryTicks.
func (s *System) CheckpointWAL() error {
	if s.walLog == nil {
		return fmt.Errorf("core: system has no write-ahead log")
	}
	return s.walLog.WriteCheckpoint(s.srv.Checkpoint(s.walLog))
}

// RestartServer kills and recovers the server in place: every replica
// and its bookkeeping is dropped (anything still in the group-commit
// buffer dies with it, exactly like SIGKILL), the directory is
// reopened, and the durable state replays — checkpoint first, then the
// records after its sequence. Replicas are then quietly caught up to
// the system clock, and only then are the staleness watchdogs and the
// answer archives re-armed, so no replayed tick is archived. Sources,
// links, the auditor, and the clock are untouched: from the server's
// perspective they are remote processes that survived the crash.
//
// Call between ticks, like CheckpointWAL. Budget-managed δ adjustments
// made after the last checkpoint are not in the log (they flow through
// the coordinator, not Apply) and recover to their checkpointed values.
func (s *System) RestartServer() (wal.RecoveryStats, error) {
	if s.walLog == nil {
		return wal.RecoveryStats{}, fmt.Errorf("core: system has no write-ahead log")
	}
	s.srv.Reset()
	log, err := wal.Open(s.walOpts)
	if err != nil {
		return wal.RecoveryStats{}, fmt.Errorf("core: reopening wal: %w", err)
	}
	stats, err := s.srv.Recover(log, 0)
	if err != nil {
		return stats, fmt.Errorf("core: recovering server: %w", err)
	}
	now := s.tick.Load()
	for _, h := range s.order {
		id := h.src.StreamID()
		if err := s.srv.CatchUp(id, now); err != nil {
			return stats, err
		}
		if h.fb != nil {
			if err := s.srv.SetWatchdog(id, h.wdDeadline, h.fb.Send); err != nil {
				return stats, err
			}
		}
		if h.histCap > 0 {
			if err := s.srv.EnableHistory(id, h.histCap); err != nil {
				return stats, err
			}
		}
	}
	s.armWAL(log)
	return stats, nil
}
