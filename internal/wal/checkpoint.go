// Checkpoints: a durable snapshot of every stream's replica state plus
// the log sequence it covers. Recovery restores the newest checkpoint
// and replays only the records after Seq, so recovery time is bounded
// by the checkpoint interval rather than the log's lifetime. The write
// protocol is the classic temp-file + fsync + rename + dir-fsync dance:
// a checkpoint either exists completely or not at all, and the previous
// one survives until its successor is durable.

package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"kalmanstream/internal/predictor"
)

// StreamState is one stream's full durable state: enough to rebuild
// the replica (Spec + Snapshot) and the server's bookkeeping around it.
type StreamState struct {
	ID string `json:"id"`
	// Spec and RegisterDelta reproduce the original registration, which
	// a reconnecting source's idempotent re-register is checked against.
	Spec          predictor.Spec `json:"spec"`
	RegisterDelta float64        `json:"registerDelta"`
	// Delta is the current (possibly budget-adjusted) precision bound.
	Delta float64 `json:"delta"`
	// Norm is the gate norm's integer code (source.Norm).
	Norm int `json:"norm,omitempty"`
	// Tick is the number of time steps the replica has taken.
	Tick int64 `json:"tick"`
	// LastCorr is the tick of the last applied correction (-1 = none).
	LastCorr    int64 `json:"lastCorr"`
	Corrections int64 `json:"corrections"`
	// LastValue and LastValueTick reproduce the exact-answer window: on
	// the tick a correction arrived the server answers with the shipped
	// measurement itself, bound 0.
	LastValue     []float64 `json:"lastValue,omitempty"`
	LastValueTick int64     `json:"lastValueTick"`
	// Snapshot is the predictor's flat state vector
	// (predictor.Snapshotter layout for Spec's kind).
	Snapshot []float64 `json:"snapshot,omitempty"`
}

// Checkpoint is the durable snapshot of the whole replica cache as of
// log sequence Seq: the effects of records [0, Seq) are included, so
// recovery replays from Seq. It is the decoded form Restore hands out;
// WriteCheckpoint encodes the same bytes from a Cut.
type Checkpoint struct {
	Seq     uint64        `json:"seq"`
	Streams []StreamState `json:"streams"`
}

// Registered is a stream record as a checkpoint reads it: the element a
// cut adds for the stream reads the registration through it when the
// element is encoded, after the cut's locks are released. Everything it
// returns is fixed once the stream exists.
type Registered interface {
	Registration() RegisterRecord
}

// Live is the part of a stream's checkpoint state that moves after
// registration, which a cut copies while the stream cannot change.
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

	// elem is the one StreamState every element is encoded from, through
	// enc into buf and from there through the frame's CRC into bw.
	elem StreamState
	buf  bytes.Buffer
	enc  *json.Encoder
	bw   *bufio.Writer
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
// stream's element is encoded.
func (c *Cut) Add(id string, rec Registered, live Live, value []float64, snap predictor.Snapshotter) {
	off := len(c.floats)
	c.floats = snap.AppendSnapshot(append(c.floats, value...))
	c.streams = append(c.streams, cutStream{id: id, rec: rec, live: live, off: off,
		nValue: int32(len(value)), nSnap: int32(len(c.floats) - off - len(value))})
}

// reset empties the cut for the next checkpoint of l, keeping its
// buffers. An empty cut encodes its streams as [], as json.Marshal does
// an empty non-nil slice.
func (c *Cut) reset(l *Log) {
	c.log, c.seq = l, 0
	if c.streams == nil {
		c.streams = []cutStream{}
	}
	c.streams, c.floats = c.streams[:0], c.floats[:0]
}

// element fills the cut's one StreamState with stream i.
func (c *Cut) element(i int32) *StreamState {
	s := &c.streams[i]
	reg := s.rec.Registration()
	value := c.floats[s.off : s.off+int(s.nValue)]
	c.elem = StreamState{
		ID: s.id, Spec: reg.Spec, RegisterDelta: reg.Delta, Norm: reg.Norm,
		Delta: s.live.Delta, Tick: s.live.Tick, LastCorr: s.live.LastCorr, Corrections: s.live.Corrections,
		LastValue: value, LastValueTick: s.live.LastValueTick,
		Snapshot: c.floats[s.off+len(value) : s.off+len(value)+int(s.nSnap)],
	}
	return &c.elem
}

// encode streams the cut's checkpoint record into f: a placeholder length
// word; then type, tick and payload, all through a running CRC-32; then
// the CRC; and last the length word, written back in place. The payload
// is {"seq":N,"streams":[...]} with one element per stream, sorted by ID,
// each from the one json.Encoder with its trailing newline dropped — so
// the bytes are appendRecord(nil, recCheckpoint, seq, json.Marshal(cp))
// for the Checkpoint cp the cut describes.
func (c *Cut) encode(f *os.File) error {
	c.order = c.order[:0]
	for i := range c.streams {
		c.order = append(c.order, int32(i))
	}
	slices.SortFunc(c.order, func(a, b int32) int { return strings.Compare(c.streams[a].id, c.streams[b].id) })
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.buf)
		c.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		c.bw.Reset(f)
	}
	var crc uint32
	var length int64
	put := func(p []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, p)
		length += int64(len(p))
		_, _ = c.bw.Write(p) // a bufio.Writer's error is sticky: Flush reports it
	}
	var word [9]byte
	_, _ = c.bw.Write(word[:4])
	word[0] = byte(recCheckpoint)
	binary.BigEndian.PutUint64(word[1:], c.seq)
	put(word[:9])
	c.buf.Reset()
	c.buf.WriteString(`{"seq":`)
	c.buf.Write(strconv.AppendUint(c.buf.AvailableBuffer(), c.seq, 10))
	if c.streams == nil {
		c.buf.WriteString(`,"streams":null`)
	} else {
		c.buf.WriteString(`,"streams":[`)
		for k, i := range c.order {
			put(c.buf.Bytes())
			c.buf.Reset()
			if k > 0 {
				c.buf.WriteByte(',')
			}
			if err := c.enc.Encode(c.element(i)); err != nil {
				return fmt.Errorf("wal: encoding checkpoint stream %q: %w", c.streams[i].id, err)
			}
			c.buf.Truncate(c.buf.Len() - 1) // Encode's newline
		}
		c.buf.WriteByte(']')
	}
	c.buf.WriteByte('}')
	put(c.buf.Bytes())
	if length > math.MaxUint32 {
		return fmt.Errorf("wal: checkpoint record of %d bytes overflows its length word", length)
	}
	_, _ = c.bw.Write(binary.BigEndian.AppendUint32(word[:0], crc))
	if err := c.bw.Flush(); err != nil {
		return err
	}
	_, err := f.WriteAt(binary.BigEndian.AppendUint32(word[:0], uint32(length)), 0)
	return err
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
	l.ckptPath, l.opened = final, nil
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

// loadCheckpoint reads and validates one checkpoint file. The file holds
// exactly one record, so the record is bounded by the file, not by
// maxRecordBody: a checkpoint WriteCheckpoint could write, recovery can
// read.
func loadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	typ, _, payload, size, ok := decodeBounded(data, len(data))
	if !ok || typ != recCheckpoint || size != len(data) {
		return nil, fmt.Errorf("wal: checkpoint record torn or corrupt")
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("wal: decoding checkpoint: %w", err)
	}
	return &c, nil
}
