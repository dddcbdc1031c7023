// Package wal is the durability layer for the replica cache: an
// append-only correction log with periodic predictor-snapshot
// checkpoints, so a restarted server recovers every stream's exact
// state instead of forcing all sources through the resync path at once.
//
// Appends are group-committed: AppendMessage frames the record into an
// in-memory buffer (no I/O, no allocation in steady state — safe to
// call under the server's shard lock), and a caller-driven flusher
// makes the buffer durable with Flush/Sync. A crash loses at most the
// unsynced buffer, which is harmless by protocol construction: a
// reconnecting source forces a full-snapshot resync, and the server's
// monotonic-tick dedupe guard drops any correction the log already
// replayed.
//
// The log is a directory of CRC-framed segment files plus checkpoint
// files. Recovery loads the newest valid checkpoint, replays every
// record after its covered sequence, and truncates the tail at the
// first torn record. See DESIGN.md, "Durability: WAL & checkpoints".
package wal

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/telemetry"
)

// DefaultSegmentBytes is the segment-rotation threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// Options configures a log.
type Options struct {
	// Dir is the log directory (created if missing). Required.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int
	// Registry receives the wal_* telemetry series (nil =
	// telemetry.Default).
	Registry *telemetry.Registry
	// Logger receives recovery and repair diagnostics (nil =
	// slog.Default()).
	Logger *slog.Logger
}

// segment is one log segment's in-memory bookkeeping. start is the
// global index of its first record; records counts what the file holds
// (flushed bytes only — the group-commit buffer is not in any segment
// until Flush).
type segment struct {
	start   uint64
	path    string
	records uint64
}

// Log is an append-only record log over one directory. Append methods
// are safe for concurrent use and never perform I/O; Flush, Sync,
// WriteCheckpoint, and Restore do the file work.
type Log struct {
	mu   sync.Mutex
	dir  string
	segB int
	log  *slog.Logger

	f        *os.File // active segment (last element of segs)
	fileSize int64
	segs     []segment
	buf      []byte // group-commit buffer: framed, unflushed records
	bufRecs  uint64 // records in buf
	seq      uint64 // records appended (flushed + buffered)
	unsynced int64  // bytes flushed to the OS but not yet fsynced

	// ckptPath is the newest durable checkpoint ("" = none); opened is
	// the decode Open validated it with, handed to the first Restore,
	// which drops it. No other decoded checkpoint is kept.
	ckptPath string
	opened   *Checkpoint

	// ckptMu serializes checkpoints without stalling appends, and guards
	// cut, the capture every checkpoint reuses.
	ckptMu sync.Mutex
	cut    Cut

	telAppended  *telemetry.Counter
	telSynced    *telemetry.Counter
	telRecords   *telemetry.Counter
	telSegments  *telemetry.Counter
	telFsync     *telemetry.Histogram
	telCkpt      *telemetry.Histogram
	telCkpts     *telemetry.Counter
	telReplayed  *telemetry.Counter
	telRecovered *telemetry.Gauge
	telTruncated *telemetry.Counter
}

// Open opens (creating if needed) the log directory, repairs any torn
// tail left by a crash, and positions the log for appending after the
// last durable record. State restoration is a separate step: call
// Restore before the first append when recovering a server.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: no directory configured")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	l := &Log{
		dir:          opts.Dir,
		segB:         opts.SegmentBytes,
		log:          logger,
		telAppended:  reg.Counter("wal_appended_bytes_total"),
		telSynced:    reg.Counter("wal_synced_bytes_total"),
		telRecords:   reg.Counter("wal_records_total"),
		telSegments:  reg.Counter("wal_segments_created_total"),
		telFsync:     reg.Histogram("wal_fsync_seconds", telemetry.LatencyBuckets),
		telCkpt:      reg.Histogram("wal_checkpoint_seconds", telemetry.LatencyBuckets),
		telCkpts:     reg.Counter("wal_checkpoints_total"),
		telReplayed:  reg.Counter("wal_recovery_replayed_total"),
		telRecovered: reg.Gauge("wal_recovered_streams"),
		telTruncated: reg.Counter("wal_recovery_truncated_bytes_total"),
	}
	if l.segB <= 0 {
		l.segB = DefaultSegmentBytes
	}
	reg.Help("wal_appended_bytes_total", "bytes framed into the write-ahead log")
	reg.Help("wal_synced_bytes_total", "write-ahead log bytes made durable by fsync")
	reg.Help("wal_fsync_seconds", "write-ahead log fsync latency")
	reg.Help("wal_checkpoint_seconds", "checkpoint capture-to-durable latency")
	reg.Help("wal_recovery_replayed_total", "log records replayed during recovery")
	reg.Help("wal_recovered_streams", "streams restored from the last recovery")
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// scan inventories the directory: loads the newest valid checkpoint,
// truncates any torn tail, counts records, and opens the active
// segment. Called once from Open.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", l.dir, err)
	}
	var ckptPaths []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A checkpoint that never reached its rename — dead weight.
			_ = os.Remove(filepath.Join(l.dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			start, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
			if perr != nil {
				l.log.Warn("wal: ignoring unparseable segment name", "file", name)
				continue
			}
			l.segs = append(l.segs, segment{start: start, path: filepath.Join(l.dir, name)})
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			ckptPaths = append(ckptPaths, filepath.Join(l.dir, name))
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].start < l.segs[j].start })
	sort.Strings(ckptPaths)

	// Newest checkpoint that passes its CRC wins; older ones are only
	// kept until their successor is durable, so trying them in reverse
	// order is the torn-checkpoint fallback.
	for i := len(ckptPaths) - 1; i >= 0; i-- {
		c, cerr := loadCheckpoint(ckptPaths[i])
		if cerr != nil {
			l.log.Warn("wal: discarding unreadable checkpoint", "file", ckptPaths[i], "err", cerr)
			continue
		}
		l.ckptPath, l.opened = ckptPaths[i], c
		break
	}

	// Walk segments in order, truncating at the first invalid record.
	// Anything after a corrupt record — including whole later segments —
	// cannot be trusted to be ordered and is dropped.
	truncatedAt := -1
	for i := range l.segs {
		seg := &l.segs[i]
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			return fmt.Errorf("wal: reading segment %s: %w", seg.path, rerr)
		}
		valid := 0
		rest := data
		for len(rest) > 0 {
			typ, _, _, size, ok := decodeRecord(rest)
			if !ok || typ == recCheckpoint {
				break
			}
			seg.records++
			valid += size
			rest = rest[size:]
		}
		if len(rest) > 0 {
			l.telTruncated.Add(int64(len(rest)))
			l.log.Warn("wal: truncating torn tail", "file", seg.path,
				"validBytes", valid, "droppedBytes", len(rest))
			if terr := os.Truncate(seg.path, int64(valid)); terr != nil {
				return fmt.Errorf("wal: truncating %s: %w", seg.path, terr)
			}
			truncatedAt = i
			break
		}
	}
	if truncatedAt >= 0 && truncatedAt+1 < len(l.segs) {
		for _, seg := range l.segs[truncatedAt+1:] {
			l.log.Warn("wal: dropping segment after corrupt record", "file", seg.path)
			if rerr := os.Remove(seg.path); rerr != nil {
				return fmt.Errorf("wal: removing %s: %w", seg.path, rerr)
			}
		}
		l.segs = l.segs[:truncatedAt+1]
	}

	// Next record index: after the last surviving segment's records, but
	// never behind the checkpoint (segments fully covered by it may have
	// been pruned).
	if n := len(l.segs); n > 0 {
		l.seq = l.segs[n-1].start + l.segs[n-1].records
	}
	if l.opened != nil && l.opened.Seq > l.seq {
		l.seq = l.opened.Seq
	}

	// Append into the last segment when it has room and is positioned at
	// the current sequence; otherwise start a fresh one.
	if n := len(l.segs); n > 0 {
		seg := l.segs[n-1]
		if info, serr := os.Stat(seg.path); serr == nil &&
			info.Size() < int64(l.segB) && seg.start+seg.records == l.seq {
			f, oerr := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if oerr != nil {
				return fmt.Errorf("wal: opening %s: %w", seg.path, oerr)
			}
			l.f = f
			l.fileSize = info.Size()
			return nil
		}
	}
	return l.newSegmentLocked()
}

// newSegmentLocked closes the active segment (if any) and starts a new
// one at the current sequence. Caller holds mu (or is Open).
func (l *Log) newSegmentLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing segment: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: closing segment: %w", err)
		}
		l.unsynced = 0
		l.f = nil
	}
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%020d.seg", l.seq-l.bufRecs))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", path, err)
	}
	l.f = f
	l.fileSize = 0
	l.segs = append(l.segs, segment{start: l.seq - l.bufRecs, path: path})
	l.telSegments.Inc()
	return syncDir(l.dir)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Seq returns the number of records appended so far (durable or
// buffered). Capture it at a quiescent point — no in-flight appends
// whose effects are already in the state being checkpointed — and it is
// the checkpoint's covered sequence.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// AppendMessage frames one applied protocol message into the
// group-commit buffer. tick is the server tick at apply time, which
// replay needs to roll the replica to the same point before
// re-applying. No I/O; allocation-free once the buffer is warm.
func (l *Log) AppendMessage(tick int64, m *netsim.Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := len(l.buf)
	n := m.EncodedSize()
	l.buf = appendUint32(l.buf, uint32(1+8+n))
	l.buf = append(l.buf, byte(RecMessage))
	l.buf = appendUint64(l.buf, uint64(tick))
	var err error
	if l.buf, err = m.AppendEncode(l.buf); err != nil {
		l.buf = l.buf[:start]
		return fmt.Errorf("wal: encoding message: %w", err)
	}
	l.buf = appendCRC(l.buf, start)
	l.seq++
	l.bufRecs++
	l.telRecords.Inc()
	l.telAppended.Add(int64(len(l.buf) - start))
	return nil
}

// AppendRegister frames one stream registration into the group-commit
// buffer (JSON payload; registrations are rare, so this path may
// allocate).
func (l *Log) AppendRegister(rec RegisterRecord) error {
	payload, err := encodeJSON(rec)
	if err != nil {
		return fmt.Errorf("wal: encoding register record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	start := len(l.buf)
	l.buf = appendRecord(l.buf, RecRegister, 0, payload)
	l.seq++
	l.bufRecs++
	l.telRecords.Inc()
	l.telAppended.Add(int64(len(l.buf) - start))
	return nil
}

// Flush writes the group-commit buffer to the active segment (rotating
// when it is full) without forcing it to stable storage.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		return fmt.Errorf("wal: writing segment: %w", err)
	}
	l.fileSize += int64(n)
	l.unsynced += int64(n)
	l.segs[len(l.segs)-1].records += l.bufRecs
	l.buf = l.buf[:0]
	l.bufRecs = 0
	if l.fileSize >= int64(l.segB) {
		return l.newSegmentLocked()
	}
	return nil
}

// Sync flushes the buffer and forces the active segment to stable
// storage — the group-commit point. A record is crash-durable only
// after the Sync that covers it returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.telFsync.Observe(time.Since(start).Seconds())
	l.telSynced.Add(l.unsynced)
	l.unsynced = 0
	return nil
}

// Close syncs outstanding records and closes the active segment. The
// log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	return nil
}

// appendUint32/appendUint64/appendCRC are binary.BigEndian helpers kept
// local so the hot append path reads as one straight-line frame build.
func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
