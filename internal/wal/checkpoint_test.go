package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
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

// stream is one stream of a test checkpoint: what a server's stream
// record serves a cut — the registration through Registered, the
// snapshot through AppendSnapshot — and what the file's register and
// state records read back as.
type stream struct {
	Reg             RegisterRecord
	Live            Live
	Value, Snapshot []float64
}

func (s *stream) Registration() RegisterRecord { return s.Reg }

func (s *stream) AppendSnapshot(dst []float64) []float64 { return append(dst, s.Snapshot...) }

func (s *stream) Restore([]float64) error { return nil }

// ckpt is a checkpoint as the tests write it and read it back.
type ckpt struct {
	Seq     uint64
	Streams []stream
}

// cutOf returns the cut function that captures ck as it stands.
func cutOf(ck *ckpt) func(*Cut) {
	return func(c *Cut) {
		c.seq = ck.Seq
		for i := range ck.Streams {
			s := &ck.Streams[i]
			c.Add(s.Reg.ID, s, s.Live, s.Value, s)
		}
	}
}

// oracle is the checkpoint file a cut of ck must write, built without the
// cut: each stream's register record framed from json.Marshal, exactly as
// AppendRegister frames it, and its state record from encoding/binary;
// then the seal. ck's streams must be sorted by ID, as a cut encodes them.
func oracle(tb testing.TB, ck *ckpt) []byte {
	tb.Helper()
	var out []byte
	for _, s := range ck.Streams {
		payload, err := json.Marshal(s.Reg)
		if err != nil {
			tb.Fatal(err)
		}
		out = appendRecord(out, RecRegister, 0, payload)
		var st bytes.Buffer
		for _, v := range []any{uint32(len(s.Reg.ID)), []byte(s.Reg.ID), s.Live.Delta, s.Live.LastCorr,
			s.Live.Corrections, s.Live.LastValueTick, uint32(len(s.Value)), s.Value, s.Snapshot} {
			if err := binary.Write(&st, binary.BigEndian, v); err != nil {
				tb.Fatal(err)
			}
		}
		out = appendRecord(out, RecState, s.Live.Tick, st.Bytes())
	}
	return appendRecord(out, recSeal, int64(ck.Seq), binary.BigEndian.AppendUint64(nil, uint64(len(ck.Streams))))
}

// streamed writes ck through WriteCheckpoint on a fresh log and returns
// the log's directory and the checkpoint file's bytes.
func streamed(tb testing.TB, ck *ckpt) (string, []byte) {
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
	return dir, data
}

// sameBits compares two float slices by their IEEE bits, so NaN payloads
// and −0 count.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameStreams compares two stream lists bit for bit.
func sameStreams(a, b []stream) bool {
	return slices.EqualFunc(a, b, func(x, y stream) bool {
		dx, dy := x.Live.Delta, y.Live.Delta
		x.Live.Delta, y.Live.Delta = 0, 0
		return reflect.DeepEqual(x.Reg, y.Reg) && x.Live == y.Live && math.Float64bits(dx) == math.Float64bits(dy) &&
			sameBits(x.Value, y.Value) && sameBits(x.Snapshot, y.Snapshot)
	})
}

// checkStreamed asserts the streamed file equals the oracle and that a
// reopened log replays it as ck, bit for bit. ck's streams must be sorted
// by ID.
func checkStreamed(tb testing.TB, ck *ckpt) {
	tb.Helper()
	dir, got := streamed(tb, ck)
	if want := oracle(tb, ck); !bytes.Equal(got, want) {
		tb.Fatalf("streamed checkpoint differs from the record oracle:\n got %q\nwant %q", got, want)
	}
	back, recs, _ := collectReplay(tb, testLog(tb, dir, 0))
	if back == nil || back.Seq != ck.Seq || !sameStreams(back.Streams, ck.Streams) || len(recs) != 0 {
		tb.Fatalf("replayed %+v and %d records, want %+v", back, len(recs), ck)
	}
}

func TestCheckpointStreamMatchesMarshal(t *testing.T) {
	kalman := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	negZero := math.Copysign(0, -1)
	subnormal := math.SmallestNonzeroFloat64 * 12345
	cases := map[string]*ckpt{
		"nil streams":   {Seq: 0},
		"empty streams": {Seq: 7, Streams: []stream{}},
		"html ids": {Seq: 3, Streams: []stream{
			{Reg: RegisterRecord{ID: "\"quoted\"", Spec: kalman}, Live: Live{Tick: 4}},
			{Reg: RegisterRecord{ID: "<a&b>", Spec: kalman, Delta: 0.5, Norm: 2}, Live: Live{Delta: 0.25}},
			{Reg: RegisterRecord{ID: "line sep"}, Live: Live{LastCorr: -1, LastValueTick: -1}},
		}},
		"exponent floats": {Seq: 1 << 40, Streams: []stream{
			{Reg: RegisterRecord{ID: "e", Spec: kalman, Delta: 1e-7}, Live: Live{Delta: 1e21},
				Value: []float64{1e300, -1e-300}, Snapshot: []float64{123456789e300, 1e20, 1e21, 1e-6, 1e-7}},
		}},
		"signed zero and subnormals": {Seq: 9, Streams: []stream{
			{Reg: RegisterRecord{ID: "z", Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 2}, Delta: negZero},
				Live: Live{Delta: negZero}, Value: []float64{negZero, subnormal},
				Snapshot: []float64{math.SmallestNonzeroFloat64, -subnormal, math.MaxFloat64, negZero}},
		}},
		"non-finite state": {Seq: 2, Streams: []stream{
			{Reg: RegisterRecord{ID: "n", Spec: kalman}, Live: Live{Delta: math.Inf(1), Tick: math.MaxInt64},
				Value: []float64{math.NaN()}, Snapshot: []float64{math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(-1)}},
		}},
		"many streams": func() *ckpt {
			ck := &ckpt{Seq: 42}
			for i := 0; i < 300; i++ {
				ck.Streams = append(ck.Streams, stream{
					Reg:   RegisterRecord{ID: string(rune('a'+i%26)) + strings.Repeat("x", i/26), Spec: kalman},
					Live:  Live{Tick: int64(i), Corrections: int64(i / 2), LastValueTick: int64(i)},
					Value: []float64{float64(i) / 3}, Snapshot: []float64{float64(i) * 0.1, -float64(i), 0.5, 0, 0, 0.5}})
			}
			slices.SortFunc(ck.Streams, func(a, b stream) int { return strings.Compare(a.Reg.ID, b.Reg.ID) })
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
	row := func(id string, tick int64) stream {
		return stream{Reg: RegisterRecord{ID: id}, Live: Live{Tick: tick}}
	}
	_, got := streamed(t, &ckpt{Seq: 5, Streams: []stream{row("c", 0), row("a", 1), row("b", 2)}})
	want := oracle(t, &ckpt{Seq: 5, Streams: []stream{row("a", 1), row("b", 2), row("c", 0)}})
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q\nwant %q", got, want)
	}
}

// TestCheckpointEncodeFailureKeepsPreviousState: a registration JSON
// cannot carry (a NaN δ) fails the checkpoint mid-file. The temp file
// goes, nothing is published or pruned, and the previous checkpoint plus
// the log recover.
func TestCheckpointEncodeFailureKeepsPreviousState(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, dir, 0)
	for i := int64(0); i < 5; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	good := &ckpt{Seq: 5, Streams: []stream{{Reg: RegisterRecord{ID: "s", Spec: predictor.Spec{Kind: predictor.KindStatic, Dim: 1}},
		Live: Live{Tick: 5, LastCorr: 4}, Snapshot: []float64{4}}}}
	if err := l.WriteCheckpoint(cutOf(good)); err != nil {
		t.Fatal(err)
	}
	for i := int64(5); i < 8; i++ {
		if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	bad := &ckpt{Seq: 8, Streams: []stream{{Reg: RegisterRecord{ID: "a"}}, {Reg: RegisterRecord{ID: "s", Delta: math.NaN()}}}}
	if err := l.WriteCheckpoint(cutOf(bad)); err == nil {
		t.Fatal("checkpoint with a NaN registration δ succeeded")
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
	back, recs, _ := collectReplay(t, re)
	if back == nil || back.Seq != 5 || !sameStreams(back.Streams, good.Streams) {
		t.Fatalf("recovered checkpoint %+v, want the Seq=5 one", back)
	}
	if len(recs) != 3 || recs[0].msg.Tick != 5 {
		t.Fatalf("replayed %d records, want the 3 after the checkpoint", len(recs))
	}
	// The reused cut and its buffers carry nothing over from a failure.
	if err := re.WriteCheckpoint(cutOf(bad)); err == nil {
		t.Fatal("checkpoint with a NaN registration δ succeeded")
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

// TestCheckpointLargerThanSegmentBoundRecovers: the record bound is per
// record, never per file. A checkpoint file larger than maxRecordBody is
// written, prunes the log it covers, and must come back whole on reopen —
// refusing it would lose every pruned record.
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
	ck := &ckpt{Seq: l.Seq()}
	for i := 0; i < 48; i++ {
		snap := make([]float64, 50_000)
		for j := range snap {
			snap[j] = r.NormFloat64()
		}
		ck.Streams = append(ck.Streams, stream{Reg: RegisterRecord{ID: "s" + string(rune('A'+i))}, Live: Live{Tick: 200}, Snapshot: snap})
	}
	if err := l.WriteCheckpoint(cutOf(ck)); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if info, err := os.Stat(cks[0]); err != nil || info.Size() <= maxRecordBody+recordOverhead {
		t.Fatalf("checkpoint file %v (err %v) is not past the %d-byte record bound", info.Size(), err, maxRecordBody)
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
	if stats.CheckpointStreams != len(ck.Streams) || !sameStreams(got.Streams, ck.Streams) {
		t.Fatalf("recovered %d streams, want all %d intact", stats.CheckpointStreams, len(ck.Streams))
	}
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want the 5 after the checkpoint", len(recs))
	}
}

// TestDamagedCheckpointFallsBack: a newer checkpoint that does not check
// whole — torn, bit-flipped, unsealed, miscounted, or holding a record a
// checkpoint never holds — is discarded, and the previous checkpoint plus
// the log after it recover.
func TestDamagedCheckpointFallsBack(t *testing.T) {
	spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
	older := &ckpt{Seq: 5, Streams: []stream{{Reg: RegisterRecord{ID: "s", Spec: spec}, Live: Live{Tick: 5, LastCorr: 4}, Snapshot: []float64{4}}}}
	newer := &ckpt{Seq: 8, Streams: []stream{
		{Reg: RegisterRecord{ID: "r", Spec: spec}, Live: Live{Tick: 8}, Snapshot: []float64{1}},
		{Reg: RegisterRecord{ID: "s", Spec: spec}, Live: Live{Tick: 8, LastCorr: 7}, Snapshot: []float64{7}},
	}}
	good := oracle(t, newer)
	sealAt := len(good) - (recordOverhead + 8)
	reseal := func(seq uint64, n uint64, body []byte) []byte {
		return appendRecord(append([]byte(nil), body...), recSeal, int64(seq), binary.BigEndian.AppendUint64(nil, n))
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	// A register record's type byte, 1, flipped to the JSON checkpoint's 3.
	typeFlipped := append([]byte(nil), good...)
	typeFlipped[4] ^= byte(RecRegister ^ recJSONCheckpoint)
	cases := map[string][]byte{
		"truncated":       good[:len(good)-3],
		"bit flip":        flipped,
		"type byte flip":  typeFlipped,
		"unsealed":        good[:sealAt],
		"seal miscounts":  reseal(8, 3, good[:sealAt]),
		"seal not last":   append(append([]byte(nil), good...), good[:sealAt]...),
		"foreign record":  reseal(8, 2, appendRecord(append([]byte(nil), good[:sealAt]...), RecMessage, 7, []byte{1})),
		"empty file":      {},
		"seal only, torn": good[sealAt : len(good)-1],
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := testLog(t, dir, 0)
			for i := int64(0); i < 5; i++ {
				if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.WriteCheckpoint(cutOf(older)); err != nil {
				t.Fatal(err)
			}
			for i := int64(5); i < 8; i++ {
				if err := l.AppendMessage(i, msg("s", i, float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "checkpoint-00000000000000000008.ckpt"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			back, recs, _ := collectReplay(t, testLog(t, dir, 0))
			if back == nil || back.Seq != 5 || !sameStreams(back.Streams, older.Streams) {
				t.Fatalf("recovered checkpoint %+v, want the Seq=5 one", back)
			}
			if len(recs) != 3 || recs[0].msg.Tick != 5 {
				t.Fatalf("replayed %d records, want the 3 after the Seq=5 checkpoint", len(recs))
			}
		})
	}
}

// TestJSONCheckpointRefused: an older build's checkpoint — one JSON
// record of type 3 — fails Open by name, whole or torn. Skipping it would
// replay a log whose prefix it pruned.
func TestJSONCheckpointRefused(t *testing.T) {
	whole := appendRecord(nil, recJSONCheckpoint, 8, []byte(`{"seq":8,"streams":[{"id":"s","tick":7}]}`))
	for name, data := range map[string][]byte{"whole": whole, "torn": whole[:len(whole)-2]} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "checkpoint-00000000000000000008.ckpt"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(Options{Dir: dir, Registry: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
			if !errors.Is(err, ErrJSONCheckpoint) {
				t.Fatalf("Open = %v, %v; want ErrJSONCheckpoint", l, err)
			}
		})
	}
}
