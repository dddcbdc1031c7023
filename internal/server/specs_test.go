package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	if heap, _ := perStream(t, benchMix); heap > 520 {
		t.Fatalf("a stream costs %.0f heap bytes, want ≤ 520", heap)
	}
}

// TestDistinctSpecsPerStream bounds the spec table's cost when no two
// streams share a spec, the case where interning saves nothing: an entry
// one record holds keeps no prototype, so a stream of its own rw1 spec
// costs ≤ 1,000 live heap bytes and its registration ≤ 18 allocations
// (≈ 930 and 15 measured, as before the table built prototypes: its
// records and replicas are the same, the value key replaces the JSON one).
func TestDistinctSpecsPerStream(t *testing.T) {
	heap, allocs := perStream(t, func(i int) predictor.Spec {
		return predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25 + float64(i)/1e6, R: 0.0025}}
	})
	if heap > 1000 || allocs > 18 {
		t.Fatalf("a stream of its own spec costs %.0f heap bytes and %.1f allocations to register, want ≤ 1,000 and ≤ 18",
			heap, allocs)
	}
}

// perStream registers 10,000 streams of spec(i) and applies one correction
// to each, and returns the live heap bytes they add and the allocations
// their registrations make, per stream.
func perStream(t *testing.T, spec func(i int) predictor.Spec) (heap, allocs float64) {
	t.Helper()
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
	n := mallocs(func() {
		for i, id := range ids {
			if err := s.Register(id, spec(i), 0.5); err != nil {
				t.Fatal(err)
			}
		}
	})
	m := netsim.Message{Kind: netsim.KindCorrection, Value: []float64{1}}
	for _, id := range ids {
		m.StreamID, m.Tick = id, 0
		if _, _, err := s.Ingest(&m, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	heap, allocs = (float64(after.HeapAlloc)-float64(before.HeapAlloc))/streams, float64(n)/streams
	t.Logf("%.0f heap bytes per stream, %.2f allocations per registration", heap, allocs)
	return heap, allocs
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
	spec := func(id string) *sharedSpec { return entry(t, s, id) }
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

// entry returns the spec table entry id's record holds.
func entry(t *testing.T, s *Server, id string) *sharedSpec {
	t.Helper()
	sh, st, err := lock(s, id)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.mu.Unlock()
	return st.spec
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

// mallocs returns how many heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAdoptInternedAllocs: a new stream of an interned spec clones the
// spec's prototype and encodes nothing — over 10,000 of them Adopt costs
// at most 3 allocations a stream: the record, the replica (one object for
// a kernel shape) and the map's and order slice's growth, amortized.
func TestAdoptInternedAllocs(t *testing.T) {
	const streams = 10_000
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%05d", i)
	}
	s := New()
	if _, err := s.Adopt("warm", benchMix(0), 0.5, nil, 0); err != nil {
		t.Fatal(err)
	}
	n := mallocs(func() {
		for _, id := range ids {
			if _, err := s.Adopt(id, benchMix(0), 0.5, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	perStream := float64(n) / streams
	t.Logf("%.2f allocations per adopted stream", perStream)
	if perStream > 3 {
		t.Errorf("Adopt of an interned spec costs %.2f allocations a stream, want ≤ 3", perStream)
	}
}

// specBytes decodes a spec for FuzzSpecKey: every field from one byte,
// floats from a palette holding ±0, so that near-equal specs are common.
type specBytes []byte

var (
	fuzzKinds = []predictor.Kind{predictor.KindStatic, predictor.KindDeadReckoning, predictor.KindEWMA,
		predictor.KindHolt, predictor.KindKalman, predictor.KindKalmanBank}
	fuzzModelKinds = []predictor.ModelKind{predictor.ModelRandomWalk, predictor.ModelRandomWalkND,
		predictor.ModelConstantVelocity, predictor.ModelConstantAcceleration, predictor.ModelConstantVelocity2D,
		"", "�", "x"} // valid UTF-8 only: every external path decodes JSON, which coerces the rest
	fuzzFloats = []float64{0, math.Copysign(0, -1), 1, 0.5, 0.25, 0.1, 2, -1, math.NaN(), 1e-300}
)

func (b *specBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *specBytes) float() float64 {
	if c := b.next(); int(c) < len(fuzzFloats) {
		return fuzzFloats[c]
	} else {
		return float64(c) / 8
	}
}

func (b *specBytes) model() predictor.ModelSpec {
	return predictor.ModelSpec{Kind: fuzzModelKinds[int(b.next())%len(fuzzModelKinds)],
		Dt: b.float(), Q: b.float(), R: b.float(), Dim: int(b.next() % 3)}
}

func (b *specBytes) spec() predictor.Spec {
	s := predictor.Spec{Kind: fuzzKinds[int(b.next())%len(fuzzKinds)], Dim: int(b.next() % 3),
		Alpha: b.float(), Beta: b.float(), BankFloor: b.float()}
	flags := b.next()
	s.Adaptive, s.AdaptiveWindow = flags&1 == 1, []int{0, -1, 4, 8}[flags>>1%4]
	s.Model = b.model()
	switch n := b.next() % 4; n {
	case 3:
		s.Models = []predictor.ModelSpec{}
	default:
		for range n {
			s.Models = append(s.Models, b.model())
		}
	}
	return s
}

// twin returns a's twin under mutation op: an identical copy, every zero
// float negated, the bank's models reversed, nil and empty models
// swapped, dt 0 and 1 swapped, or one field redrawn from b.
func twin(a predictor.Spec, op byte, b *specBytes) predictor.Spec {
	t := a
	t.Models = slices.Clone(a.Models)
	models := func(f func(*predictor.ModelSpec)) {
		f(&t.Model)
		for i := range t.Models {
			f(&t.Models[i])
		}
	}
	flip := func(v *float64) {
		if *v == 0 {
			*v = -*v
		}
	}
	switch op % 8 {
	case 1:
		flip(&t.Alpha)
		flip(&t.Beta)
		flip(&t.BankFloor)
		models(func(m *predictor.ModelSpec) { flip(&m.Dt); flip(&m.Q); flip(&m.R) })
	case 2:
		slices.Reverse(t.Models)
	case 3:
		if t.Models == nil {
			t.Models = []predictor.ModelSpec{}
		} else if len(t.Models) == 0 {
			t.Models = nil
		}
	case 4:
		models(func(m *predictor.ModelSpec) { m.Dt = map[float64]float64{0: 1, 1: 0}[m.Dt] })
	case 5, 6, 7:
		switch field := op >> 3 % 13; field {
		case 0:
			t.Kind = fuzzKinds[int(b.next())%len(fuzzKinds)]
		case 1:
			t.Dim = int(b.next() % 3)
		case 2:
			t.Alpha = b.float()
		case 3:
			t.Beta = b.float()
		case 4:
			t.BankFloor = b.float()
		case 5:
			t.Adaptive = !t.Adaptive
		case 6:
			t.AdaptiveWindow = []int{0, -1, 4, 8}[b.next()%4]
		case 7:
			t.Model.Kind = fuzzModelKinds[int(b.next())%len(fuzzModelKinds)]
		case 8:
			t.Model.Dt = b.float()
		case 9:
			t.Model.Q = b.float()
		case 10:
			t.Model.R = b.float()
		case 11:
			t.Model.Dim = int(b.next() % 3)
		case 12:
			if len(t.Models) > 0 {
				t.Models[0] = b.model()
			}
		}
	}
	return t
}

// FuzzSpecKey pins the spec table's value key to the JSON a register
// record logs: two specs Build accepts share a table entry exactly when
// their json.Marshal bytes are equal, and the table accepts a spec exactly
// when Build does — a clone of an entry's prototype builds nothing, so a key
// that matched a spec Build refuses would admit it.
func FuzzSpecKey(f *testing.F) {
	// Layout: kind, dim, alpha, beta, bank floor, adaptive|window<<1, the
	// model (kind, dt, q, r, dim), the model count, each model; then the
	// bytes a redrawn field reads. Palette: 0 → 0, 1 → -0, 2 → 1, 3 → 0.5,
	// 4 → 0.25, 5 → 0.1, 6 → 2, 7 → -1, 8 → NaN, 9 → 1e-300.
	rw1 := []byte{4, 0, 0, 0, 0, 0, 0, 0, 4, 5, 0, 0}
	for _, seed := range []struct {
		data []byte
		op   byte
	}{
		{rw1, 0}, // identical
		{rw1, 1}, // -0 dt: omitted, shared
		{rw1, 4}, // dt 0 against 1
		{[]byte{4, 0, 0, 0, 0, 0, 2, 2, 4, 5, 0, 0}, 4},                               // cv2, dt 1 against 0
		{[]byte{0, 1, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0}, 1},                               // static: -0 in its unused model's q and r
		{[]byte{2, 1, 3, 0, 0, 0, 0, 0, 4, 5, 0, 0}, 1},                               // ewma: -0 beta
		{[]byte{4, 0, 0, 0, 0, 5, 0, 0, 4, 5, 0, 0, 0}, 5 | 6<<3},                     // adaptive window 4 against 0
		{[]byte{4, 0, 0, 0, 0, 7, 0, 0, 4, 5, 0, 0, 1}, 5 | 6<<3},                     // window 8 against -1
		{[]byte{4, 0, 0, 0, 0, 3, 0, 0, 4, 5, 0, 0, 0}, 5 | 6<<3},                     // window -1 against 0: one replica, two records
		{[]byte{5, 0, 0, 0, 0, 0, 5, 0, 6, 6, 0, 2, 0, 0, 4, 5, 0, 2, 3, 5, 5, 0}, 2}, // a bank, reordered
		{[]byte{5, 0, 0, 0, 0, 0, 5, 0, 6, 6, 0, 2, 0, 0, 4, 5, 0, 0, 0, 4, 5, 0}, 2}, // a bank of two equal models
		{[]byte{5, 0, 0, 0, 0, 0, 5, 0, 6, 6, 0, 1, 0, 1, 4, 5, 0}, 1},                // a bank model's -0 dt
		{[]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3}, 3},                               // empty against nil models
	} {
		f.Add(seed.data, seed.op)
	}
	f.Fuzz(func(t *testing.T, data []byte, op byte) {
		b := specBytes(data)
		a := b.spec()
		c := twin(a, op, &b)
		s := New()
		for id, spec := range map[string]predictor.Spec{"a": a, "c": c} {
			_, buildErr := spec.Build()
			if err := s.Register(id, spec, 1); (err == nil) != (buildErr == nil) {
				t.Fatalf("%+v: the table says %v, Build says %v", spec, err, buildErr)
			}
		}
		if s.Len() < 2 {
			return
		}
		ja, _ := json.Marshal(a)
		jc, _ := json.Marshal(c)
		shared := entry(t, s, "a") == entry(t, s, "c")
		if shared != bytes.Equal(ja, jc) || len(s.specs.m) != map[bool]int{true: 1, false: 2}[shared] {
			t.Fatalf("shared entry %t, %d entries, for JSON\n%s\n%s", shared, len(s.specs.m), ja, jc)
		}
	})
}
