package wal

import (
	"os"
	"path/filepath"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
)

func testLog(t *testing.T, dir string, segBytes int) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: segBytes, Registry: telemetry.New()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func msg(id string, tick int64, v float64) *netsim.Message {
	return &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{v}}
}

type replayed struct {
	typ  RecordType
	tick int64
	msg  netsim.Message
	reg  RegisterRecord
}

func collectReplay(t *testing.T, l *Log) (*Checkpoint, []replayed, RecoveryStats) {
	t.Helper()
	var ckpt *Checkpoint
	var recs []replayed
	stats, err := l.Restore(
		func(c *Checkpoint) error { ckpt = c; return nil },
		func(typ RecordType, tick int64, payload []byte) error {
			r := replayed{typ: typ, tick: tick}
			switch typ {
			case RecRegister:
				reg, err := DecodeRegister(payload)
				if err != nil {
					return err
				}
				r.reg = reg
			case RecMessage:
				if err := netsim.DecodeInto(&r.msg, payload); err != nil {
					return err
				}
				r.msg.Value = append([]float64(nil), r.msg.Value...)
			}
			recs = append(recs, r)
			return nil
		})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return ckpt, recs, stats
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	if err := l.AppendRegister(RegisterRecord{ID: "s1", Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 1}, Delta: 0.5}); err != nil {
		t.Fatalf("AppendRegister: %v", err)
	}
	for i := int64(0); i < 10; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatalf("AppendMessage: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := testLog(t, dir, 0)
	ckpt, recs, stats := collectReplay(t, re)
	if ckpt != nil {
		t.Fatalf("unexpected checkpoint: %+v", ckpt)
	}
	if stats.RecordsReplayed != 11 || len(recs) != 11 {
		t.Fatalf("replayed %d records (stats %d), want 11", len(recs), stats.RecordsReplayed)
	}
	if recs[0].typ != RecRegister || recs[0].reg.ID != "s1" || recs[0].reg.Delta != 0.5 {
		t.Fatalf("bad register replay: %+v", recs[0])
	}
	for i, r := range recs[1:] {
		if r.typ != RecMessage || r.tick != int64(i) || r.msg.Tick != int64(i) || r.msg.Value[0] != float64(i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if re.Seq() != 11 {
		t.Fatalf("Seq after reopen = %d, want 11", re.Seq())
	}
}

func TestUnsyncedBufferIsNotDurable(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	if err := l.AppendMessage(0, msg("s1", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Appended but never flushed: the crash contract says this record is
	// lost. Abandon the log object without Close (the simulated crash).
	if err := l.AppendMessage(1, msg("s1", 1, 2)); err != nil {
		t.Fatal(err)
	}

	re := testLog(t, dir, 0)
	_, recs, _ := collectReplay(t, re)
	if len(recs) != 1 || recs[0].msg.Tick != 0 {
		t.Fatalf("want only the synced record, got %d: %+v", len(recs), recs)
	}
}

func TestSegmentRotationAndReplayOrder(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 128) // tiny segments force rotation
	const n = 50
	for i := int64(0); i < n; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := testLog(t, dir, 128)
	_, recs, stats := collectReplay(t, re)
	if len(recs) != n {
		t.Fatalf("replayed %d, want %d (stats %+v)", len(recs), n, stats)
	}
	for i, r := range recs {
		if r.msg.Tick != int64(i) {
			t.Fatalf("replay out of order at %d: tick %d", i, r.msg.Tick)
		}
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 5; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	// Tear the last record mid-frame, as a crash mid-write would.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}

	re := testLog(t, dir, 0)
	_, recs, _ := collectReplay(t, re)
	if len(recs) != 4 {
		t.Fatalf("want 4 surviving records, got %d", len(recs))
	}
	// The repaired log must accept appends and stay consistent.
	if err := re.AppendMessage(10, msg("s1", 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := testLog(t, dir, 0)
	_, recs2, _ := collectReplay(t, re2)
	if len(recs2) != 5 || recs2[4].msg.Tick != 10 {
		t.Fatalf("post-repair append lost: %d records", len(recs2))
	}
}

func TestBitFlipDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 5; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the middle record: its CRC fails, and
	// everything after it is untrusted.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := testLog(t, dir, 0)
	_, recs, _ := collectReplay(t, re)
	if len(recs) >= 5 {
		t.Fatalf("corrupt record surfaced in replay: %d records", len(recs))
	}
	for i, r := range recs {
		if r.msg.Tick != int64(i) || r.msg.Value[0] != float64(i) {
			t.Fatalf("surviving record %d corrupted: %+v", i, r)
		}
	}
}

func TestCheckpointSkipsReplayAndPrunes(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 256)
	for i := int64(0); i < 40; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	seq := l.Seq()
	ck := &Checkpoint{Seq: seq, Streams: []StreamState{{
		ID:   "s1",
		Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 1},
		Tick: 40, LastCorr: 39, Corrections: 40,
		Snapshot: []float64{39},
	}}}
	if err := l.WriteCheckpoint(cutOf(ck)); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Post-checkpoint records must replay; pre-checkpoint ones must not.
	for i := int64(40); i < 45; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Covered segments were pruned.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) > 2 {
		t.Fatalf("prune left %d segments: %v", len(segs), segs)
	}

	re := testLog(t, dir, 256)
	ckpt, recs, stats := collectReplay(t, re)
	if ckpt == nil || ckpt.Seq != seq || len(ckpt.Streams) != 1 || ckpt.Streams[0].ID != "s1" {
		t.Fatalf("bad checkpoint: %+v", ckpt)
	}
	if stats.CheckpointSeq != seq || stats.CheckpointStreams != 1 {
		t.Fatalf("bad stats: %+v", stats)
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5 post-checkpoint", len(recs))
	}
	for i, r := range recs {
		if r.msg.Tick != int64(40+i) {
			t.Fatalf("replay %d has tick %d, want %d", i, r.msg.Tick, 40+i)
		}
	}
}

func TestCorruptCheckpointFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 8; i++ {
		if err := l.AppendMessage(i, msg("s1", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint((*Cut).Begin); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(cks) != 1 {
		t.Fatalf("want 1 checkpoint, got %d", len(cks))
	}
	data, _ := os.ReadFile(cks[0])
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(cks[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The corrupt checkpoint is discarded, and because the active
	// segment survives pruning, a full replay from sequence 0 still
	// reconstructs everything.
	re := testLog(t, dir, 0)
	ckpt, recs, _ := collectReplay(t, re)
	if ckpt != nil {
		t.Fatalf("corrupt checkpoint was restored: %+v", ckpt)
	}
	if len(recs) != 8 {
		t.Fatalf("full replay fallback got %d records, want 8", len(recs))
	}
	if re.Seq() != 8 {
		t.Fatalf("Seq = %d, want 8 (from surviving active segment)", re.Seq())
	}
}

func TestSeqContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 3; i++ {
		if err := l.AppendMessage(i, msg("s", i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := testLog(t, dir, 0)
	if re.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", re.Seq())
	}
	if err := re.AppendMessage(3, msg("s", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if re.Seq() != 4 {
		t.Fatalf("Seq = %d, want 4", re.Seq())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}
