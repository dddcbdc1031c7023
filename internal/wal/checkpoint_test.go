package wal

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
)

// fixedStream serves a StreamState to a cut as a server's stream record
// does: the registration through Registered, the snapshot through
// AppendSnapshot.
type fixedStream StreamState

func (f *fixedStream) Registration() RegisterRecord {
	return RegisterRecord{ID: f.ID, Spec: f.Spec, Delta: f.RegisterDelta, Norm: f.Norm}
}

func (f *fixedStream) AppendSnapshot(dst []float64) []float64 { return append(dst, f.Snapshot...) }

func (f *fixedStream) Restore([]float64) error { return nil }

// cutOf returns the cut function that captures ck as it stands: its Seq,
// its streams, and a nil Streams as nil.
func cutOf(ck *Checkpoint) func(*Cut) {
	return func(c *Cut) {
		c.seq = ck.Seq
		if ck.Streams == nil {
			c.streams = nil
			return
		}
		for i := range ck.Streams {
			s := (*fixedStream)(&ck.Streams[i])
			c.Add(s.ID, s, Live{Delta: s.Delta, Tick: s.Tick, LastCorr: s.LastCorr,
				Corrections: s.Corrections, LastValueTick: s.LastValueTick}, s.LastValue, s)
		}
	}
}

// oracle is the checkpoint file the streamed encoding must reproduce
// byte for byte: the whole checkpoint marshalled at once, then framed.
func oracle(tb testing.TB, ck *Checkpoint) []byte {
	tb.Helper()
	payload, err := json.Marshal(ck)
	if err != nil {
		tb.Fatal(err)
	}
	return appendRecord(nil, recCheckpoint, int64(ck.Seq), payload)
}

// streamed writes ck through WriteCheckpoint on a fresh log and returns
// the checkpoint file's path and bytes.
func streamed(tb testing.TB, ck *Checkpoint) (string, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Open(Options{Dir: dir, Registry: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteCheckpoint(cutOf(ck)); err != nil {
		tb.Fatalf("WriteCheckpoint: %v", err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if len(cks) != 1 {
		tb.Fatalf("want 1 checkpoint file, got %v", cks)
	}
	data, err := os.ReadFile(cks[0])
	if err != nil {
		tb.Fatal(err)
	}
	return cks[0], data
}

// checkStreamed asserts the streamed file equals the oracle and loads
// back as the checkpoint the oracle's payload decodes to. ck's streams
// must be sorted by ID, as a cut encodes them.
func checkStreamed(tb testing.TB, ck *Checkpoint) {
	tb.Helper()
	path, got := streamed(tb, ck)
	want := oracle(tb, ck)
	if !bytes.Equal(got, want) {
		tb.Fatalf("streamed checkpoint differs from json.Marshal:\n got %q\nwant %q", got, want)
	}
	loaded, err := loadCheckpoint(path)
	if err != nil {
		tb.Fatalf("loadCheckpoint: %v", err)
	}
	var decoded Checkpoint
	if err := json.Unmarshal(want[4+9:len(want)-4], &decoded); err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, &decoded) {
		tb.Fatalf("loaded %+v, want %+v", loaded, &decoded)
	}
}

func TestCheckpointStreamMatchesMarshal(t *testing.T) {
	kalman := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	negZero := math.Copysign(0, -1)
	subnormal := math.SmallestNonzeroFloat64 * 12345
	cases := map[string]*Checkpoint{
		"nil streams":   {Seq: 0},
		"empty streams": {Seq: 7, Streams: []StreamState{}},
		"html ids": {Seq: 3, Streams: []StreamState{
			{ID: "\"quoted\"", Spec: kalman, Tick: 4},
			{ID: "<a&b>", Spec: kalman, RegisterDelta: 0.5, Delta: 0.25, Norm: 2},
			{ID: "line sep", LastCorr: -1, LastValueTick: -1},
		}},
		"exponent floats": {Seq: 1 << 40, Streams: []StreamState{
			{ID: "e", Spec: kalman, Delta: 1e21, RegisterDelta: 1e-7,
				LastValue: []float64{1e300, -1e-300}, Snapshot: []float64{123456789e300, 1e20, 1e21, 1e-6, 1e-7}},
		}},
		"signed zero and subnormals": {Seq: 9, Streams: []StreamState{
			{ID: "z", Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 2},
				Delta: negZero, LastValue: []float64{negZero, subnormal},
				Snapshot: []float64{math.SmallestNonzeroFloat64, -subnormal, math.MaxFloat64, negZero}},
		}},
		"many streams": func() *Checkpoint {
			ck := &Checkpoint{Seq: 42}
			for i := 0; i < 300; i++ {
				ck.Streams = append(ck.Streams, StreamState{ID: string(rune('a'+i%26)) + strings.Repeat("x", i/26),
					Spec: kalman, Tick: int64(i), Corrections: int64(i / 2), LastValue: []float64{float64(i) / 3},
					LastValueTick: int64(i), Snapshot: []float64{float64(i) * 0.1, -float64(i), 0.5, 0, 0, 0.5}})
			}
			slices.SortFunc(ck.Streams, func(a, b StreamState) int { return strings.Compare(a.ID, b.ID) })
			return ck
		}(),
	}
	for name, ck := range cases {
		t.Run(name, func(t *testing.T) { checkStreamed(t, ck) })
	}
}

// TestCheckpointSortsByID: a cut adds streams in shard order; the file
// lists them sorted by ID.
func TestCheckpointSortsByID(t *testing.T) {
	in := &Checkpoint{Seq: 5, Streams: []StreamState{{ID: "c"}, {ID: "a", Tick: 1}, {ID: "b", Tick: 2}}}
	_, got := streamed(t, in)
	want := oracle(t, &Checkpoint{Seq: 5, Streams: []StreamState{{ID: "a", Tick: 1}, {ID: "b", Tick: 2}, {ID: "c"}}})
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q\nwant %q", got, want)
	}
}

// TestCheckpointEncodeFailureKeepsPreviousState: a value JSON cannot
// carry fails the checkpoint mid-stream. The temp file goes, nothing is
// published or pruned, and the previous checkpoint plus the log recover.
func TestCheckpointEncodeFailureKeepsPreviousState(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 5; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	good := &Checkpoint{Seq: 5, Streams: []StreamState{{ID: "s", Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 1},
		Tick: 5, LastCorr: 4, Snapshot: []float64{4}}}}
	if err := l.WriteCheckpoint(cutOf(good)); err != nil {
		t.Fatal(err)
	}
	for i := int64(5); i < 8; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	bad := &Checkpoint{Seq: 8, Streams: []StreamState{{ID: "a"}, {ID: "s", Snapshot: []float64{1, math.NaN()}}}}
	if err := l.WriteCheckpoint(cutOf(bad)); err == nil {
		t.Fatal("checkpoint with a NaN snapshot succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed checkpoint left %v", tmps)
	}
	if cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")); len(cks) != 1 || filepath.Base(cks[0]) != "checkpoint-00000000000000000005.ckpt" {
		t.Fatalf("checkpoints after the failure: %v, want only the Seq=5 one", cks)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := testLog(t, dir, 0)
	ckpt, recs, _ := collectReplay(t, re)
	if ckpt == nil || ckpt.Seq != 5 || len(ckpt.Streams) != 1 || ckpt.Streams[0].Snapshot[0] != 4 {
		t.Fatalf("recovered checkpoint %+v, want the Seq=5 one", ckpt)
	}
	if len(recs) != 3 || recs[0].msg.Tick != 5 {
		t.Fatalf("replayed %d records, want the 3 after the checkpoint", len(recs))
	}
	// The reused cut and its buffers carry nothing over from a failure.
	if err := re.WriteCheckpoint(cutOf(bad)); err == nil {
		t.Fatal("checkpoint with a NaN snapshot succeeded")
	}
	good.Seq = re.Seq()
	if err := re.WriteCheckpoint(cutOf(good)); err != nil {
		t.Fatalf("checkpoint after a failed one: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint-00000000000000000008.ckpt"))
	if err != nil || !bytes.Equal(data, oracle(t, good)) {
		t.Fatalf("checkpoint after a failed one (err %v):\n got %q\nwant %q", err, data, oracle(t, good))
	}
}

// TestCheckpointLargerThanSegmentBoundRecovers: a checkpoint record is
// bounded by its file, not by the segment record bound. One larger than
// maxRecordBody is written, prunes the log it covers, and must come back
// whole on reopen — refusing it would lose every pruned record.
func TestCheckpointLargerThanSegmentBoundRecovers(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 1<<10)
	for i := int64(0); i < 200; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	r := rand.New(rand.NewSource(1))
	ck := &Checkpoint{Seq: l.Seq()}
	for i := 0; i < 24; i++ {
		snap := make([]float64, 50_000)
		for j := range snap {
			snap[j] = r.NormFloat64()
		}
		ck.Streams = append(ck.Streams, StreamState{ID: "s" + string(rune('a'+i)), Tick: 200, Snapshot: snap})
	}
	if err := l.WriteCheckpoint(cutOf(ck)); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if info, err := os.Stat(cks[0]); err != nil || info.Size() <= maxRecordBody+recordOverhead {
		t.Fatalf("checkpoint file %v (err %v) is not past the %d-byte segment record bound", info.Size(), err, maxRecordBody)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segsBefore) < 3 || len(segsAfter) != 1 {
		t.Fatalf("segments %d before the checkpoint, %d after; want several pruned to the active one", len(segsBefore), len(segsAfter))
	}
	for i := int64(200); i < 205; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := testLog(t, dir, 1<<10)
	got, recs, stats := collectReplay(t, re)
	if got == nil {
		t.Fatal("the checkpoint was refused on reopen")
	}
	if stats.CheckpointStreams != len(ck.Streams) || !reflect.DeepEqual(got.Streams, ck.Streams) {
		t.Fatalf("recovered %d streams, want all %d intact", stats.CheckpointStreams, len(ck.Streams))
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want the 5 after the checkpoint", len(recs))
	}
}
