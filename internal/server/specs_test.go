package server

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/wal"
)

// benchMix returns the spec of stream i in the deployed-path benchmark's
// population: a random walk, every fifth a constant-velocity model.
func benchMix(i int) predictor.Spec {
	if i%5 == 4 {
		return predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	}
	return predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.0025}}
}

// bankSpec is a spec with a Models slice, built fresh on each call.
func bankSpec(r float64) predictor.Spec {
	return predictor.Spec{Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
		{Kind: predictor.ModelRandomWalk, Q: 0.1, R: r},
		{Kind: predictor.ModelConstantVelocity, Dt: 0.5, Q: 0.01, R: r},
	}}
}

// TestServerBytesPerStream pins what a stream costs the server: 10,000
// streams of the benchmark's mix, one correction each, grow the live heap
// by at most 520 bytes a stream (≈ 450 measured; 928 when every record
// carried its own spec and every filter its five matrix headers, ≈ 570
// with the compact filter but the spec back in the record by value).
func TestServerBytesPerStream(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation inflates the heap")
	}
	const streams = 10_000
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%05d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	m := netsim.Message{Kind: netsim.KindCorrection, Value: []float64{1}}
	for i, id := range ids {
		if err := s.Register(id, benchMix(i), 0.5); err != nil {
			t.Fatal(err)
		}
		m.StreamID, m.Tick = id, 0
		if _, _, err := s.Ingest(&m, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perStream := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / streams
	runtime.KeepAlive(s)
	t.Logf("%.0f heap bytes per stream", perStream)
	if perStream > 520 {
		t.Fatalf("a stream costs %.0f heap bytes, want ≤ 520", perStream)
	}
}

// TestStreamRecordSize pins the two structs a stream is mostly made of.
func TestStreamRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(streamState{}); got > 240 {
		t.Errorf("streamState is %d bytes, want ≤ 240", got)
	}
}

// TestEqualSpecsShareOneCopy: records registered with equal specs, each
// built separately, point at one copy; a different spec gets its own.
func TestEqualSpecsShareOneCopy(t *testing.T) {
	s := New()
	for i, spec := range []predictor.Spec{bankSpec(0.5), bankSpec(0.5), bankSpec(0.25), benchMix(0), benchMix(5)} {
		if err := s.Register(fmt.Sprint("s", i), spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	spec := func(id string) *sharedSpec {
		_, st, err := s.lock(id)
		if err != nil {
			t.Fatal(err)
		}
		defer st.sh.mu.Unlock()
		return st.spec
	}
	if spec("s0") != spec("s1") || spec("s3") != spec("s4") {
		t.Error("equal specs hold separate copies")
	}
	if spec("s0") == spec("s2") || spec("s0") == spec("s3") {
		t.Error("different specs share a copy")
	}
	if n := len(s.specs.m); n != 3 {
		t.Errorf("table holds %d specs, want 3", n)
	}
}

// TestAdoptComparesSpecs: re-registering with an equal spec built
// separately adopts the stream; a different spec or δ conflicts.
func TestAdoptComparesSpecs(t *testing.T) {
	s := New()
	ref, err := s.Adopt("a", bankSpec(0.5), 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.Adopt("a", bankSpec(0.5), 1, nil, 1); err != nil || again != ref {
		t.Fatalf("equal spec: %v, same ref %v", err, again == ref)
	}
	for name, spec := range map[string]predictor.Spec{"different spec": bankSpec(0.25), "other kind": benchMix(0)} {
		if _, err := s.Adopt("a", spec, 1, nil, 2); err == nil {
			t.Errorf("%s adopted the stream", name)
		}
	}
	if _, err := s.Adopt("a", bankSpec(0.5), 2, nil, 2); err == nil {
		t.Error("different delta adopted the stream")
	}
	if n := len(s.specs.m); n != 1 {
		t.Errorf("table holds %d specs after the conflicts, want 1", n)
	}
}

// TestSpecTableDrains: every record releases its spec when Unregister or
// Reset drops it, and a refused registration holds none.
func TestSpecTableDrains(t *testing.T) {
	s := New()
	distinct := func(i int) predictor.Spec {
		return predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1 + float64(i), R: 1}}
	}
	for i := 0; i < 1000; i++ {
		if err := s.Register(fmt.Sprint("s", i), distinct(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.specs.m); n != 1000 {
		t.Fatalf("table holds %d specs, want 1000", n)
	}
	for i := 0; i < 1000; i++ {
		if err := s.Unregister(fmt.Sprint("s", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.specs.m); n != 0 {
		t.Fatalf("table holds %d specs after unregistering every stream", n)
	}
	for i := 0; i < 10; i++ {
		if err := s.Register(fmt.Sprint("s", i), distinct(i%3), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRegisterHook(func(wal.RegisterRecord) error { return fmt.Errorf("disk full") })
	if err := s.Register("refused", distinct(7), 1); err == nil {
		t.Fatal("a registration the log refused went through")
	}
	if n := len(s.specs.m); n != 3 {
		t.Fatalf("table holds %d specs, want 3", n)
	}
	s.Reset()
	if n := len(s.specs.m); n != 0 {
		t.Fatalf("table holds %d specs after Reset", n)
	}
}

// TestRecoveredRegisterRecordsUnchanged: a checkpoint writes each stream's
// register record from the shared spec, byte for byte what a record
// carrying its own copy wrote, and a recovered server writes it again.
func TestRecoveredRegisterRecordsUnchanged(t *testing.T) {
	s := New()
	for i, spec := range []predictor.Spec{benchMix(0), benchMix(4), bankSpec(0.5), benchMix(5)} {
		if err := s.Register(fmt.Sprint("s", i), spec, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		`{"id":"s0","spec":{"kind":"kalman","model":{"kind":"random-walk","q":0.25,"r":0.0025}},"delta":0.5}`,
		`{"id":"s1","spec":{"kind":"kalman","model":{"kind":"constant-velocity","q":0.05,"r":0.1}},"delta":0.5}`,
		`{"id":"s2","spec":{"kind":"kalman-bank","model":{"kind":"","q":0,"r":0},"models":[{"kind":"random-walk","q":0.1,"r":0.5},{"kind":"constant-velocity","dt":0.5,"q":0.01,"r":0.5}]},"delta":0.5}`,
		`{"id":"s3","spec":{"kind":"kalman","model":{"kind":"random-walk","q":0.25,"r":0.0025}},"delta":0.5}`,
	}
	registers := func(log *wal.Log) []string {
		var out []string
		if _, err := log.Restore(func(typ wal.RecordType, _ int64, payload []byte) error {
			if typ == wal.RecRegister {
				out = append(out, string(payload))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	check := func(where string, got []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s register records:\n got %q\nwant %q", where, got, want)
		}
	}
	log := checkpointed(t, s.Checkpoint)
	check("checkpointed", registers(log))
	recovered := New()
	if _, err := recovered.Recover(log, 0); err != nil {
		t.Fatal(err)
	}
	check("recovered", registers(checkpointed(t, recovered.Checkpoint)))
}
