// Crash-point matrix: simulate a kill at each interesting point of the
// append/sync/checkpoint protocol and assert recovery lands exactly on
// the durable prefix — never ahead of it (inventing unsynced state),
// never behind it (losing synced state). An in-process "crash" abandons
// the Log without Flush/Close: the group-commit buffer dies with the
// instance, precisely what SIGKILL costs the real server.

package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/telemetry"
)

// TestCrashAfterAppendLosesOnlyBuffer: records appended but never
// synced are gone after the crash; everything the last Sync covered
// survives.
func TestCrashAfterAppendLosesOnlyBuffer(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 10; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := int64(10); i < 15; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: the 5-record tail is still in the buffer.

	r := testLog(t, dir, 0)
	_, recs, stats := collectReplay(t, r)
	if len(recs) != 10 || stats.RecordsReplayed != 10 {
		t.Fatalf("recovered %d records (stats %d), want the 10 synced ones", len(recs), stats.RecordsReplayed)
	}
	for i, rec := range recs {
		if rec.msg.Tick != int64(i) {
			t.Fatalf("record %d has tick %d — replay out of order", i, rec.msg.Tick)
		}
	}
}

// TestCrashAfterSyncLosesNothing: a crash immediately after Sync
// recovers every record, across a segment rotation.
func TestCrashAfterSyncLosesNothing(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 256) // tiny segments: force rotation mid-run
	for i := int64(0); i < 40; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash with an empty buffer.

	r := testLog(t, dir, 256)
	_, recs, stats := collectReplay(t, r)
	if len(recs) != 40 {
		t.Fatalf("recovered %d records, want all 40 (stats %+v)", len(recs), stats)
	}
	if stats.SegmentsScanned < 2 {
		t.Fatalf("replay scanned %d segments — rotation never happened", stats.SegmentsScanned)
	}
}

// TestCrashDuringCheckpointWrite: a kill after the temp file is created
// but before the rename publishes it. The orphaned .tmp is swept on
// open, the previous durable state (here: no checkpoint, full log)
// recovers untouched, and the next checkpoint succeeds at the same
// path.
func TestCrashDuringCheckpointWrite(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 12; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// The checkpointer died mid-write: a half-written temp file (torn
	// frame — the length word promises more than the file holds).
	tmp := filepath.Join(dir, "checkpoint-00000000000000000012.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte{0, 0, 4, 0, byte(recCheckpoint), 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}

	r := testLog(t, dir, 0)
	ckpt, recs, _ := collectReplay(t, r)
	if ckpt != nil {
		t.Fatalf("recovered phantom checkpoint %+v from a torn temp file", ckpt)
	}
	if len(recs) != 12 {
		t.Fatalf("recovered %d records, want 12", len(recs))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("orphaned checkpoint temp file survived open: %v", err)
	}
	// The same checkpoint retries cleanly on the recovered log.
	if err := r.WriteCheckpoint((*Cut).Begin); err != nil {
		t.Fatalf("checkpoint after torn-tmp recovery: %v", err)
	}
}

// TestCrashAfterCheckpointRename: the rename published the checkpoint
// but the kill landed before pruning. Recovery must prefer the new
// checkpoint and replay only the records after its sequence, even
// though the segments it covers still exist.
func TestCrashAfterCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 8; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Publish a checkpoint covering the first 8 records by hand — the
	// exact bytes WriteCheckpoint renames into place — and "crash" before
	// any pruning happens.
	payload, err := encodeJSON(&Checkpoint{Seq: 8, Streams: []StreamState{{ID: "s", Tick: 7, LastCorr: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint-00000000000000000008.ckpt")
	if err := os.WriteFile(path, appendRecord(nil, recCheckpoint, 8, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := int64(8); i < 11; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	r := testLog(t, dir, 0)
	ckpt, recs, stats := collectReplay(t, r)
	if ckpt == nil || ckpt.Seq != 8 || len(ckpt.Streams) != 1 {
		t.Fatalf("recovered checkpoint %+v, want the published Seq=8 one", ckpt)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 after the checkpoint (stats %+v)", len(recs), stats)
	}
	if recs[0].msg.Tick != 8 {
		t.Fatalf("replay started at tick %d, want 8", recs[0].msg.Tick)
	}
}

// TestConcurrentAppendRotateCheckpoint is the -race hammer: many
// writers appending while one goroutine flushes/syncs and another
// checkpoints, with segments tiny enough that rotation happens
// constantly. Afterwards the log must account for every append:
// checkpoint coverage plus replayed records equals the total.
func TestConcurrentAppendRotateCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 512, Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const perWriter = 300
	var writeWG, loopWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "hammer", Value: []float64{0}}
			for i := 0; i < perWriter; i++ {
				m.Tick = int64(w*perWriter + i)
				m.Value[0] = float64(i)
				if err := l.AppendMessage(m.Tick, m); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	loopWG.Add(2)
	go func() { // flusher
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}
	}()
	go func() { // checkpointer
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := l.WriteCheckpoint((*Cut).Begin); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	loopWG.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := testLog(t, dir, 512)
	var replayedRecs int
	var ckptSeq uint64
	stats, err := r.Restore(
		func(c *Checkpoint) error { ckptSeq = c.Seq; return nil },
		func(typ RecordType, tick int64, payload []byte) error { replayedRecs++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	total := ckptSeq + uint64(replayedRecs)
	if total != writers*perWriter {
		t.Fatalf("checkpoint %d + replayed %d = %d records, want %d (stats %+v)",
			ckptSeq, replayedRecs, total, writers*perWriter, stats)
	}
}
