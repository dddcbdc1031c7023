// Recovery: replay durable state into a fresh (or reset) server. The
// invariant the crash-point tests pin down: after any crash, Restore
// reproduces exactly the state whose records were synced — the
// checkpoint's streams plus every durable record after its sequence,
// in append order, and nothing from the torn tail.

package wal

import (
	"fmt"
	"os"
)

// RecoveryStats summarizes one Restore pass.
type RecoveryStats struct {
	// CheckpointSeq is the restored checkpoint's covered sequence (0
	// when no checkpoint existed).
	CheckpointSeq uint64
	// CheckpointStreams is how many streams the checkpoint carried.
	CheckpointStreams int
	// SegmentsScanned counts segment files read during replay.
	SegmentsScanned int
	// RecordsReplayed counts records handed to the replay callback.
	RecordsReplayed int
}

// ReplayFunc receives one durable record during Restore: its type, the
// server tick at original apply time, and the raw payload (aliasing a
// scratch buffer — copy anything kept). Returning an error aborts
// recovery.
type ReplayFunc func(typ RecordType, tick int64, payload []byte) error

// Restore replays durable state: restore receives the newest valid
// checkpoint, decoded from its file — the decode Open validated it with
// on the first call, a fresh one after — and skipped when none exists;
// the log keeps no decoded copy. Then replay receives every
// durable record after the checkpoint's sequence, oldest first. Call it
// before the first append when starting up, or at a quiescent point
// (after Sync) when simulating a crash in-process. Records still in the
// group-commit buffer are not durable and are not replayed — exactly
// the crash contract.
func (l *Log) Restore(restore func(*Checkpoint) error, replay ReplayFunc) (RecoveryStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var stats RecoveryStats
	from := uint64(0)
	if l.ckptPath != "" {
		c := l.opened
		l.opened = nil
		if c == nil {
			var err error
			if c, err = loadCheckpoint(l.ckptPath); err != nil {
				return stats, fmt.Errorf("wal: reading checkpoint: %w", err)
			}
		}
		stats.CheckpointSeq = c.Seq
		stats.CheckpointStreams = len(c.Streams)
		from = c.Seq
		if restore != nil {
			if err := restore(c); err != nil {
				return stats, fmt.Errorf("wal: restoring checkpoint: %w", err)
			}
		}
	}
	flushed := l.seq - l.bufRecs
	for _, seg := range l.segs {
		if seg.start+seg.records <= from {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return stats, fmt.Errorf("wal: reading segment %s: %w", seg.path, err)
		}
		stats.SegmentsScanned++
		idx := seg.start
		rest := data
		for len(rest) > 0 && idx < flushed {
			typ, tick, payload, size, ok := decodeRecord(rest)
			if !ok {
				// Open already truncated torn tails; a bad record here is
				// live corruption, not a crash artifact.
				return stats, fmt.Errorf("wal: corrupt record %d in %s", idx, seg.path)
			}
			rest = rest[size:]
			if idx >= from && replay != nil {
				if err := replay(typ, tick, payload); err != nil {
					return stats, fmt.Errorf("wal: replaying record %d: %w", idx, err)
				}
				stats.RecordsReplayed++
			}
			idx++
		}
	}
	l.telReplayed.Add(int64(stats.RecordsReplayed))
	l.telRecovered.Set(float64(stats.CheckpointStreams))
	return stats, nil
}
