package server

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"kalmanstream/internal/netsim"
)

// TestIngestRefIsIngest: the three ways of naming a record — its id
// string, its id bytes, the Ref Adopt returned — run one ingest body, so
// the same messages leave three servers bit-identical: same answers, same
// counts, duplicates dropped alike, the same refusals, and m.StreamID set
// to the record's id however the message named it.
func TestIngestRefIsIngest(t *testing.T) {
	const streams = 4
	byID, byBytes, byRef := New(), New(), New()
	refs := make([]Ref, streams)
	for i := range refs {
		id := fmt.Sprintf("s%d", i)
		for _, s := range []*Server{byID, byBytes} {
			if _, err := s.Adopt(id, kalmanSpec(), 0.5, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := byRef.Adopt(id, kalmanSpec(), 0.5, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := byRef.Adopt(id, kalmanSpec(), 0.5, nil, 0); err != nil || again != ref {
			t.Fatalf("re-adopting %s: %v, same ref %v", id, err, again == ref)
		}
		refs[i] = ref
	}
	for n := 0; n < 400; n++ {
		i := n % streams
		id := fmt.Sprintf("s%d", i)
		tick := int64(n/streams) * 3
		if n%7 == 3 {
			tick -= 3 // a duplicate
		}
		v := math.Sin(float64(n))
		if n%50 == 49 {
			v = math.NaN() // refused
		}
		mk := func() *netsim.Message {
			return &netsim.Message{Kind: netsim.KindCorrection, Tick: tick, Value: []float64{v}}
		}
		a, b, c := mk(), mk(), mk()
		a.StreamID = id
		b.StreamID, c.StreamID = "stale name", "stale name"
		appA, recA, errA := byID.Ingest(a, int64(n))
		appB, recB, errB := byBytes.IngestID([]byte(id), b, int64(n))
		appC, recC, errC := byRef.IngestRef(refs[i], c, int64(n))
		if appA != appB || appA != appC || recA != recB || recA != recC ||
			fmt.Sprint(errA) != fmt.Sprint(errB) || fmt.Sprint(errA) != fmt.Sprint(errC) {
			t.Fatalf("message %d: Ingest (%v %v %v), IngestID (%v %v %v), IngestRef (%v %v %v)",
				n, appA, recA, errA, appB, recB, errB, appC, recC, errC)
		}
		if b.StreamID != id || c.StreamID != id {
			t.Fatalf("message %d: StreamID after IngestID %q, after IngestRef %q, want %q", n, b.StreamID, c.StreamID, id)
		}
	}
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%d", i)
		want, err := byID.Info(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Server{byBytes, byRef} {
			got, err := s.Info(id, -1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Corrections != want.Corrections || got.Duplicates != want.Duplicates || got.Tick != want.Tick ||
				math.Float64bits(got.Prediction[0]) != math.Float64bits(want.Prediction[0]) {
				t.Fatalf("%s: %+v, by id %+v", id, got, want)
			}
		}
	}
	if _, _, err := byBytes.IngestID([]byte("nope"), &netsim.Message{Kind: netsim.KindCorrection}, 0); !errors.Is(err, ErrUnknownStream) ||
		err.Error() != `server: unknown stream: "nope"` {
		t.Fatalf("unknown id bytes: %v", err)
	}
}

// TestDeadRefRefused: a Ref outlives its record, never the record's
// ingest. Once Unregister or Reset drops the record — even when a stream
// of the same id is registered again — IngestRef refuses the old Ref with
// ErrUnknownStream, and the new record is untouched by it.
func TestDeadRefRefused(t *testing.T) {
	s := New()
	m := func(tick int64) *netsim.Message {
		return &netsim.Message{Kind: netsim.KindCorrection, Tick: tick, Value: []float64{1}}
	}
	for _, drop := range []func() error{
		func() error { return s.Unregister("d") },
		func() error { s.Reset(); return nil },
	} {
		old, err := s.Adopt("d", staticSpec(), 0.5, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.IngestRef(old, m(0), 0); err != nil {
			t.Fatal(err)
		}
		if err := drop(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.IngestRef(old, m(1), 0); !errors.Is(err, ErrUnknownStream) {
			t.Fatalf("ingest through a dropped record's Ref: %v", err)
		}
		fresh, err := s.Adopt("d", staticSpec(), 0.5, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.IngestRef(old, m(2), 0); !errors.Is(err, ErrUnknownStream) {
			t.Fatalf("old Ref after re-registration: %v", err)
		}
		if info, _ := s.Info("d", -1); info.Corrections != 0 {
			t.Fatalf("re-registered stream took %d corrections through the old Ref", info.Corrections)
		}
		if _, _, err := s.IngestRef(fresh, m(3), 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Unregister("d"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestIDZeroAlloc: resolving a record from the id bytes a batch
// record was decoded from — and by Ref — allocates nothing per message,
// across many streams as for one.
func TestIngestIDZeroAlloc(t *testing.T) {
	s := New()
	const streams = 64
	ids := make([][]byte, streams)
	refs := make([]Ref, streams)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("sensor-%04d", i))
		ref, err := s.Adopt(string(ids[i]), kalmanSpec(), 0.5, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	m := &netsim.Message{Kind: netsim.KindCorrection, Value: []float64{1}}
	n := 0
	step := func() {
		i := n % streams
		m.Tick = int64(n / streams)
		ingest := func() (bool, bool, error) { return s.IngestID(ids[i], m, 0) }
		if n%2 == 1 {
			ingest = func() (bool, bool, error) { return s.IngestRef(refs[i], m, 0) }
		}
		if _, _, err := ingest(); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for range 4 * streams {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("IngestID/IngestRef over %d streams allocate %.2f per message, want 0", streams, allocs)
	}
}
