// Durability for the in-process System: when SystemConfig.WALDir is
// set, the node logs every registration and applied message (synced at
// each tick boundary) and the server can be killed and rebuilt from it
// mid-run — the primitive behind the chaos harness's kill/restart
// fault. The sources, links, auditor, and clock live outside the
// server and survive a restart, exactly as remote sources survive a
// real server crash.
package core

import "kalmanstream/internal/wal"

// WAL returns the system's write-ahead log (nil when WALDir was unset).
func (s *System) WAL() *wal.Log { return s.node.wal }

// SyncWAL flushes and fsyncs the log's group-commit buffer. Advance
// syncs at every tick boundary; call it directly only around an
// out-of-band durability point (the chaos harness syncs before a
// scheduled kill so the restart is deterministically lossless).
func (s *System) SyncWAL() error {
	if s.node.wal == nil {
		return errNoWAL
	}
	return s.node.wal.Sync()
}

// CheckpointWAL writes a full predictor-snapshot checkpoint and prunes
// the log prefix it covers. Call between ticks — after an Advance's
// Observe calls have finished and before the next Advance — so the
// captured states and the captured sequence agree. Advance does this
// automatically every CheckpointEveryTicks.
func (s *System) CheckpointWAL() error { return s.node.Checkpoint() }

// RestartServer kills and recovers the server in place: every replica
// and its bookkeeping is dropped (anything still in the group-commit
// buffer dies with it, exactly like SIGKILL), and the node reopens and
// recovers the directory as it does at construction — checkpoint first,
// then the records after its sequence. Only then are the staleness
// watchdogs and the answer archives re-armed, the archives as of the
// system clock, so no replayed tick is archived and silence still counts
// from each stream's last applied message; no replica moves. Sources,
// links, the auditor, and the clock are untouched: from the server's
// perspective they are remote processes that survived the crash.
//
// Call between ticks, like CheckpointWAL. Budget-managed δ adjustments
// made after the last checkpoint are not in the log (they flow through
// the coordinator, not ingest) and recover to their checkpointed values.
func (s *System) RestartServer() (wal.RecoveryStats, error) {
	n := s.node
	if n.wal == nil {
		return wal.RecoveryStats{}, errNoWAL
	}
	n.srv.Reset()
	if err := n.openWAL(); err != nil {
		return wal.RecoveryStats{}, err
	}
	for _, h := range s.order {
		id := h.src.StreamID()
		if h.fb != nil {
			if err := n.srv.SetWatchdog(id, h.wdDeadline, h.fb); err != nil {
				return n.recovery, err
			}
		}
		if h.histCap > 0 {
			if err := n.srv.EnableHistory(id, h.histCap, n.readTick()); err != nil {
				return n.recovery, err
			}
		}
	}
	return n.recovery, nil
}
