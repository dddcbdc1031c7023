package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestJournalBasics(t *testing.T) {
	j := NewJournal(4, 16)
	if j.Enabled() {
		t.Fatal("journal enabled before SetEnabled")
	}
	j.Record(Event{StreamID: "a", Stage: StageGate, Outcome: OutcomeSuppressed})
	if j.Len() != 0 {
		t.Fatal("disabled journal recorded an event")
	}
	j.SetEnabled(true)
	for i := 0; i < 5; i++ {
		j.Record(Event{StreamID: "a", Tick: int64(i), Stage: StageGate, Outcome: OutcomeSuppressed, Value: float64(i)})
	}
	j.Record(Event{StreamID: "b", Tick: 2, Stage: StageApply, Outcome: OutcomeApplied, TraceID: 7})

	if got := j.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if got := j.Recorded(); got != 6 {
		t.Fatalf("Recorded = %d, want 6", got)
	}
	evs := j.StreamEvents("a")
	if len(evs) != 5 {
		t.Fatalf("StreamEvents(a) = %d events, want 5", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of sequence order: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
		if evs[i].Tick != evs[i-1].Tick+1 {
			t.Fatalf("per-stream tick order broken: %v", evs)
		}
	}
	if tr := j.TraceEvents(7); len(tr) != 1 || tr[0].StreamID != "b" {
		t.Fatalf("TraceEvents(7) = %v", tr)
	}
	if evs[0].Wall == 0 {
		t.Fatal("Record did not stamp wall clock")
	}

	if got := j.Drain(); len(got) != 6 || j.Len() != 0 {
		t.Fatalf("Drain returned %d events and left %d, want 6 and 0", len(got), j.Len())
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	// One shard so every event lands in the same ring.
	j := NewJournal(1, 8)
	j.SetEnabled(true)
	for i := 0; i < 20; i++ {
		j.Record(Event{StreamID: "s", Tick: int64(i)})
	}
	evs := j.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring capacity 8", len(evs))
	}
	// The retained events must be the newest 8, in order.
	for i, e := range evs {
		if want := int64(12 + i); e.Tick != want {
			t.Fatalf("event %d has tick %d, want %d (oldest must be evicted)", i, e.Tick, want)
		}
	}
	if j.Recorded() != 20 {
		t.Fatalf("Recorded = %d, want 20", j.Recorded())
	}
}

func TestNextTraceIDUniqueNonzero(t *testing.T) {
	j := NewJournal(1, 4)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := j.NextTraceID()
		if id == 0 {
			t.Fatal("NextTraceID returned 0 (reserved for untraced)")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %d", id)
		}
		seen[id] = true
	}
}

func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	if j.Enabled() {
		t.Fatal("nil journal reports enabled")
	}
	j.Record(Event{StreamID: "x"}) // must not panic
	if got := j.Drain(); got != nil {
		t.Fatalf("nil Drain = %v", got)
	}
}

func TestDrain(t *testing.T) {
	j := NewJournal(2, 8)
	j.SetEnabled(true)
	for i := 0; i < 6; i++ {
		j.Record(Event{StreamID: fmt.Sprintf("s%d", i%3), Tick: int64(i)})
	}
	evs := j.Drain()
	if len(evs) != 6 {
		t.Fatalf("Drain returned %d events, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("Drain output not in sequence order")
		}
	}
	if j.Len() != 0 {
		t.Fatal("Drain left events behind")
	}
}

// TestRecordZeroAlloc guards the enabled hot path: once a shard's ring
// exists (AllocsPerRun's warm-up call makes it), recording into it must
// not allocate (the disabled path trivially cannot).
func TestRecordZeroAlloc(t *testing.T) {
	j := NewJournal(4, 64)
	j.SetEnabled(true)
	e := Event{StreamID: "sensor-01", Tick: 5, Stage: StageGate, Outcome: OutcomeSuppressed, Value: 0.3, Aux: 0.5}
	allocs := testing.AllocsPerRun(1000, func() {
		j.Record(e)
	})
	if allocs != 0 {
		t.Errorf("Record allocated %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentJournal hammers Record/Snapshot/Drain from many
// goroutines; the real assertion is the race detector (make check runs
// -race), the count check catches lost events.
func TestConcurrentJournal(t *testing.T) {
	j := NewJournal(8, 1<<14)
	j.SetEnabled(true)
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("stream-%d", w)
			for i := 0; i < perW; i++ {
				j.Record(Event{StreamID: id, Tick: int64(i), Stage: StageGate, Outcome: OutcomeSuppressed})
				if i%64 == 0 {
					_ = j.StreamEvents(id)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = j.Snapshot()
			_ = j.Len()
			_ = j.Recorded()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := j.Recorded(); got != workers*perW {
		t.Fatalf("Recorded = %d, want %d (lost events)", got, workers*perW)
	}
	// Ring capacity (8 shards × 16384) exceeds the event count, so
	// nothing was overwritten and every event must be retained.
	if got := j.Len(); got != workers*perW {
		t.Fatalf("Len = %d, want %d", got, workers*perW)
	}
}

func TestHandlerJSONAndText(t *testing.T) {
	j := NewJournal(2, 32)
	j.SetEnabled(true)
	aud := NewAuditor(nil, j)
	id := j.NextTraceID()
	j.Record(Event{StreamID: "s1", Tick: 1, Stage: StageGate, Outcome: OutcomeSent, TraceID: id, Value: 0.9, Aux: 0.5})
	j.Record(Event{StreamID: "s1", Tick: 1, Stage: StageApply, Outcome: OutcomeApplied, TraceID: id, Value: 42})
	j.Record(Event{StreamID: "s2", Tick: 1, Stage: StageGate, Outcome: OutcomeSuppressed, Value: 0.1, Aux: 0.5})
	aud.Check("s1", 1, 0.9, 0.5, false)
	aud.Check("s2", 1, 0.1, 0.5, true)

	h := Handler(j, aud)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?stream=s1", nil))
	var dump Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if !dump.Enabled || len(dump.Events) != 2 || dump.Events[0].Stage != StageGate || dump.Events[1].Stage != StageApply {
		t.Fatalf("unexpected dump: %+v", dump)
	}
	if len(dump.Audit) != 2 {
		t.Fatalf("audit stats missing: %+v", dump.Audit)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace="+fmt.Sprintf("%x", id), nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 2 {
		t.Fatalf("trace filter returned %d events, want 2", len(dump.Events))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=text", nil))
	body := rec.Body.String()
	for _, want := range []string{"gate", "sent", "suppressed", "apply", "violations"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text timeline missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Stage != StageGate || dump.Events[0].StreamID != "s2" {
		t.Fatalf("n=1 must keep the most recent event, got %+v", dump.Events)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// ringsMade reports which of j's shards hold a ring.
func ringsMade(j *Journal) []bool {
	made := make([]bool, len(j.shards))
	for i, sh := range j.shards {
		sh.mu.Lock()
		made[i] = sh.ring != nil
		sh.mu.Unlock()
	}
	return made
}

// TestIdleJournalHoldsNoRing gates the pay-on-use storage: a journal
// that never records costs its shard headers, not the 2.36 MB of rings
// a default-sized journal holds once every shard has seen an event.
func TestIdleJournalHoldsNoRing(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		before := liveHeap()
		j := NewJournal(DefaultShards, DefaultCapacity)
		j.SetEnabled(enabled)
		grew := liveHeap() - before
		if grew >= 16<<10 {
			t.Errorf("enabled=%v: an idle journal grew the live heap by %d B, want < 16 KB", enabled, grew)
		}
		runtime.KeepAlive(j)
	}
}

// TestFirstRecordMakesOneRing checks that a ring is made by the first
// event of its own shard and by nothing else.
func TestFirstRecordMakesOneRing(t *testing.T) {
	j := NewJournal(DefaultShards, 16)
	j.SetEnabled(true)
	if got := j.Snapshot(); len(got) != 0 || j.Len() != 0 || j.Recorded() != 0 || len(j.Drain()) != 0 {
		t.Fatal("a fresh journal must read as empty")
	}
	j.Record(Event{StreamID: "sensor-7", Tick: 1})
	want := int(fnv1a("sensor-7") % DefaultShards)
	for i, made := range ringsMade(j) {
		if made != (i == want) {
			t.Errorf("shard %d holds a ring: %v, want %v (the event's shard is %d)", i, made, i == want, want)
		}
	}
	if evs := j.StreamEvents("sensor-7"); len(evs) != 1 || evs[0].Tick != 1 {
		t.Fatalf("StreamEvents = %v, want the one recorded event", evs)
	}
}

// TestDefaultHoldsNoRing: this test binary never enables trace.Default,
// so none of its shards may have made a ring.
func TestDefaultHoldsNoRing(t *testing.T) {
	for i, made := range ringsMade(Default) {
		if made {
			t.Errorf("trace.Default shard %d holds a ring, but nothing enabled the journal", i)
		}
	}
}

// TestFirstUseRace records into a fresh journal, so every shard makes
// its ring while readers and drainers walk the shards; the assertion is
// the race detector, plus the count check for lost events.
func TestFirstUseRace(t *testing.T) {
	const (
		writers = 4
		perW    = 500
	)
	// A ring holds every event the writers send, so none is overwritten.
	j := NewJournal(DefaultShards, writers*perW)
	j.SetEnabled(true)
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	loop := func(f func()) {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f()
			}
		}
	}
	var drained int
	readers.Add(2)
	go loop(func() { _, _, _ = j.Snapshot(), j.Len(), j.Recorded() })
	go loop(func() { drained += len(j.Drain()) })
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				j.Record(Event{StreamID: fmt.Sprintf("s%d", (w*perW+i)%32), Tick: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	// Every event is either drained or still retained, never both.
	if got := drained + j.Len(); got != writers*perW {
		t.Fatalf("drained %d + retained %d events, want the %d recorded", drained, j.Len(), writers*perW)
	}
}
