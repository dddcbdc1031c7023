// Checkpoints: a durable snapshot of every stream's state plus the log
// sequence it covers. A checkpoint file is a run of ordinary records: for
// each stream, sorted by ID, its RecRegister record (the bytes
// AppendRegister logs) and its RecState record; then one seal, whose tick
// is the covered sequence and whose payload counts the states. Recovery
// feeds the checkpoint's records and then the segment records after its
// sequence through one ReplayFunc, so recovery time is bounded by the
// checkpoint interval rather than the log's lifetime. The write protocol
// is the classic temp-file + fsync + rename + dir-fsync dance: a
// checkpoint either exists completely or not at all, and the previous
// one survives until its successor is durable.

package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"kalmanstream/internal/predictor"
)

// ErrJSONCheckpoint refuses a log directory an older build checkpointed:
// its checkpoint is one JSON record this build does not read. Falling
// back past it would replay a log whose prefix that checkpoint pruned.
var ErrJSONCheckpoint = errors.New("wal: JSON checkpoint written by an older build (record type 3); recover the directory with that build or start from an empty one")

// Registered is a stream record as a checkpoint reads it: the record a
// cut adds for the stream reads the registration through it when the
// record is encoded, after the cut's locks are released. Everything it
// returns is fixed once the stream exists.
type Registered interface {
	Registration() RegisterRecord
}

// Live is the part of a stream's checkpoint state that moves after
// registration, which a cut copies while the stream cannot change.
// LastCorr is the tick of the last applied correction (-1 = none).
type Live struct {
	Delta                                      float64
	Tick, LastCorr, Corrections, LastValueTick int64
}

// Cut is one checkpoint's capture of the replica cache: the function
// WriteCheckpoint is given fills it, then the log sorts and encodes it.
// It holds no heap object per stream — each stream is one fixed-size
// entry, its floats one span of a shared buffer — and the log reuses it,
// encoding scratch included, from one checkpoint to the next, so a
// steady-state checkpoint allocates the same few objects at any
// population.
type Cut struct {
	log     *Log
	seq     uint64
	streams []cutStream
	floats  []float64 // per stream, in Add order: its last value, then its snapshot
	order   []int32   // streams, sorted by ID

	// reg is the registration being encoded, a field so that enc encodes
	// it through a pointer and boxes no copy per stream; js holds its JSON
	// and rec the stream's two framed records on their way into bw.
	reg RegisterRecord
	js  bytes.Buffer
	enc *json.Encoder
	rec []byte
	bw  *bufio.Writer
}

type cutStream struct {
	id            string
	rec           Registered
	live          Live
	off           int // first of the stream's floats
	nValue, nSnap int32
}

// Begin opens the cut at the log's current sequence. Call it once nothing
// that appends to the log is in flight, and before the first Add: every
// record below the sequence is then in the states Add copies, and every
// record at or above it is not.
func (c *Cut) Begin() { c.seq = c.log.Seq() }

// Add copies one stream into the cut: its moving state, its exact-answer
// value and its predictor snapshot. rec is kept, and read when the
// stream's records are encoded.
func (c *Cut) Add(id string, rec Registered, live Live, value []float64, snap predictor.Snapshotter) {
	off := len(c.floats)
	c.floats = snap.AppendSnapshot(append(c.floats, value...))
	c.streams = append(c.streams, cutStream{id: id, rec: rec, live: live, off: off,
		nValue: int32(len(value)), nSnap: int32(len(c.floats) - off - len(value))})
}

// reset empties the cut for the next checkpoint of l, keeping its
// buffers.
func (c *Cut) reset(l *Log) {
	c.log, c.seq = l, 0
	c.streams, c.floats = c.streams[:0], c.floats[:0]
}

// encode writes the cut's checkpoint file to f: each stream's register
// and state records, sorted by ID, then the seal. A stream whose two
// records outgrow the record bound fails it, since no reader would take
// them.
func (c *Cut) encode(f *os.File) error {
	c.order = c.order[:0]
	for i := range c.streams {
		c.order = append(c.order, int32(i))
	}
	slices.SortFunc(c.order, func(a, b int32) int { return strings.Compare(c.streams[a].id, c.streams[b].id) })
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.js)
		c.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		c.bw.Reset(f)
	}
	for _, i := range c.order {
		s := &c.streams[i]
		c.reg = s.rec.Registration()
		c.js.Reset()
		if err := c.enc.Encode(&c.reg); err != nil {
			return fmt.Errorf("wal: encoding checkpoint stream %q: %w", s.id, err)
		}
		c.rec = appendRecord(c.rec[:0], RecRegister, 0, c.js.Bytes()[:c.js.Len()-1]) // Encode's newline
		snap := s.off + int(s.nValue)
		c.rec = appendState(c.rec, &State{ID: s.id, Live: s.live, Value: c.floats[s.off:snap], Snapshot: c.floats[snap : snap+int(s.nSnap)]})
		if len(c.rec) > maxRecordBody {
			return fmt.Errorf("wal: checkpoint stream %q outgrows the %d-byte record bound", s.id, maxRecordBody)
		}
		_, _ = c.bw.Write(c.rec) // a bufio.Writer's error is sticky: Flush reports it
	}
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], uint64(len(c.streams)))
	c.rec = appendRecord(c.rec[:0], recSeal, int64(c.seq), count[:])
	_, _ = c.bw.Write(c.rec)
	return c.bw.Flush()
}

// WriteCheckpoint captures a checkpoint with cut, makes it durable, and
// prunes the segments and checkpoints it fully covers. cut must fill the
// cut at a quiescent point (see Cut.Begin). Checkpoints are serialized —
// cut, sync, encode, publish — so the newest cut is always the one
// published last. Records up to the cut's sequence are synced before the
// encode, so a crash anywhere in this sequence leaves either the old
// checkpoint with a full log, or the new one with a prunable prefix —
// never a gap.
func (l *Log) WriteCheckpoint(cut func(*Cut)) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	start := time.Now()
	c := &l.cut
	c.reset(l)
	cut(c)
	if err := l.Sync(); err != nil {
		return err
	}
	final := filepath.Join(l.dir, fmt.Sprintf("checkpoint-%020d.ckpt", c.seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	if err = c.encode(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.mu.Lock()
	l.ckptPath, l.ckptSeq = final, c.seq
	err = l.pruneLocked(c.seq, final)
	l.mu.Unlock()
	l.telCkpts.Inc()
	l.telCkpt.Observe(time.Since(start).Seconds())
	return err
}

// pruneLocked removes checkpoints older than keep and every segment
// whose records all precede seq (the active segment always survives).
// Caller holds mu.
func (l *Log) pruneLocked(seq uint64, keep string) error {
	old, err := filepath.Glob(filepath.Join(l.dir, "checkpoint-*.ckpt"))
	if err != nil {
		return err
	}
	for _, path := range old {
		if path != keep {
			_ = os.Remove(path)
		}
	}
	kept := l.segs[:0]
	for i, seg := range l.segs {
		last := i == len(l.segs)-1
		if !last && l.segs[i+1].start <= seq {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: pruning %s: %w", seg.path, err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return syncDir(l.dir)
}

// readCheckpoint reads one checkpoint file and checks it whole: every
// record frames and passes its CRC, there are only register and state
// records before the seal, and the seal is last and counts the states.
// It returns the file's bytes, the covered sequence and the state count.
// A file that opens with a type-3 frame carrying an older build's JSON,
// whole or torn, is refused, never skipped; a type byte flipped to 3 is
// damage like any other.
func readCheckpoint(path string) (data []byte, seq uint64, states int, err error) {
	if data, err = os.ReadFile(path); err != nil {
		return nil, 0, 0, err
	}
	if len(data) > 4 && RecordType(data[4]) == recJSONCheckpoint && bytes.HasPrefix(data[min(len(data), 13):], []byte(`{"seq":`)) {
		return nil, 0, 0, ErrJSONCheckpoint
	}
	for rest := data; len(rest) > 0; {
		typ, tick, payload, size, ok := decodeRecord(rest)
		switch {
		case !ok:
			return nil, 0, 0, fmt.Errorf("wal: checkpoint record torn or corrupt at byte %d", len(data)-len(rest))
		case typ == RecState:
			states++
		case typ == recSeal:
			if size != len(rest) || len(payload) != 8 || binary.BigEndian.Uint64(payload) != uint64(states) {
				return nil, 0, 0, fmt.Errorf("wal: checkpoint seal is not last or miscounts its %d states", states)
			}
			return data, uint64(tick), states, nil
		case typ != RecRegister:
			return nil, 0, 0, fmt.Errorf("wal: record type %d in a checkpoint", typ)
		}
		rest = rest[size:]
	}
	return nil, 0, 0, fmt.Errorf("wal: checkpoint has no seal")
}
