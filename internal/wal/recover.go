// Recovery: replay durable state into a fresh (or reset) server. The
// invariant the crash-point tests pin down: after any crash, Restore
// reproduces exactly the state whose records were synced — the
// checkpoint's records plus every durable record after its sequence,
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
	// RecordsReplayed counts the segment records handed to the replay
	// callback; the checkpoint's own records are not among them.
	RecordsReplayed int
}

// ReplayFunc receives one durable record during Restore: its type, its
// frame tick (for a message, the server tick at original apply time; for
// a state, the stream's tick), and the raw payload (aliasing a scratch
// buffer — copy anything kept). Returning an error aborts recovery.
type ReplayFunc func(typ RecordType, tick int64, payload []byte) error

// Restore replays durable state through replay: the newest valid
// checkpoint's register and state records, read from its file, then
// every durable record after the checkpoint's sequence, oldest first.
// Call it before the first append when starting up, or at a quiescent
// point (after Sync) when simulating a crash in-process. Records still in
// the group-commit buffer are not durable and are not replayed — exactly
// the crash contract.
func (l *Log) Restore(replay ReplayFunc) (RecoveryStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var stats RecoveryStats
	from := uint64(0)
	if l.ckptPath != "" {
		data, seq, states, err := readCheckpoint(l.ckptPath)
		if err != nil {
			return stats, fmt.Errorf("wal: reading checkpoint: %w", err)
		}
		stats.CheckpointSeq, stats.CheckpointStreams, from = seq, states, seq
		for rest := data; ; {
			typ, tick, payload, size, _ := decodeRecord(rest)
			if typ == recSeal {
				break
			}
			if err := replay(typ, tick, payload); err != nil {
				return stats, fmt.Errorf("wal: restoring checkpoint: %w", err)
			}
			rest = rest[size:]
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
			if idx >= from {
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
