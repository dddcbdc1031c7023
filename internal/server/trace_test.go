package server_test

import (
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server/servertest"
	"kalmanstream/internal/trace"
)

// TestApplyAndQueryTracing checks the server half of the lifecycle
// journal: applies record StageApply with the in-band trace ID, queries
// record StageQuery linked (via lastTrace) to the correction whose state
// they serve from, and PeekValue records nothing.
func TestApplyAndQueryTracing(t *testing.T) {
	j := trace.NewJournal(1, 64)
	j.SetEnabled(true)
	s := servertest.New()
	s.SetTrace(j)
	if err := s.Register("s", static1, 0.5); err != nil {
		t.Fatal(err)
	}

	s.Tick()
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 0, Value: []float64{10}, Trace: 42}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Value("s"); err != nil { // same tick: exact answer
		t.Fatal(err)
	}
	s.Tick()
	if _, _, err := s.Value("s"); err != nil { // later tick: prediction + δ
		t.Fatal(err)
	}

	evs := j.StreamEvents("s")
	if len(evs) != 3 {
		t.Fatalf("journal has %d events, want 3 (apply + 2 queries): %+v", len(evs), evs)
	}
	ap := evs[0]
	if ap.Stage != trace.StageApply || ap.Outcome != trace.OutcomeApplied || ap.TraceID != 42 || ap.Value != 10 || ap.Aux != 1 {
		t.Fatalf("apply event = %+v, want trace 42, value 10, lag 1", ap)
	}
	q0, q1 := evs[1], evs[2]
	if q0.Stage != trace.StageQuery || q0.TraceID != 42 || q0.Aux != 0 {
		t.Fatalf("same-tick query event = %+v, want trace 42 with bound 0", q0)
	}
	if q1.Stage != trace.StageQuery || q1.TraceID != 42 || q1.Aux != 0.5 || q1.Value != 10 {
		t.Fatalf("later query event = %+v, want trace 42, bound 0.5, estimate 10", q1)
	}

	// The full trace now spans apply → query, retrievable by ID.
	if byID := j.TraceEvents(42); len(byID) != 3 {
		t.Fatalf("TraceEvents(42) = %d events, want 3", len(byID))
	}

	// PeekValue is the auditor's side channel: no events.
	before := j.Recorded()
	if _, _, err := s.PeekValue("s", s.At()); err != nil {
		t.Fatal(err)
	}
	if j.Recorded() != before {
		t.Fatal("PeekValue recorded a trace event")
	}

	// An untraced apply still records an event but must not clobber the
	// query→correction link.
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 1, Value: []float64{11}}); err != nil {
		t.Fatal(err)
	}
	evs = j.StreamEvents("s")
	last := evs[len(evs)-1]
	if last.Stage != trace.StageApply || last.TraceID != 0 {
		t.Fatalf("untraced apply event = %+v", last)
	}
	if _, _, err := s.Value("s"); err != nil {
		t.Fatal(err)
	}
	evs = j.StreamEvents("s")
	if q := evs[len(evs)-1]; q.TraceID != 42 {
		t.Fatalf("query after untraced apply has trace %d, want 42 (last traced correction)", q.TraceID)
	}
}

// TestTracingDisabledRecordsNothing pins the near-zero-cost contract:
// with the journal off (the default), server operations leave no events.
func TestTracingDisabledRecordsNothing(t *testing.T) {
	j := trace.NewJournal(1, 8)
	s := servertest.New()
	s.SetTrace(j)
	if err := s.Register("s", static1, 1); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 0, Value: []float64{1}, Trace: 7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Value("s"); err != nil {
		t.Fatal(err)
	}
	if j.Recorded() != 0 {
		t.Fatalf("disabled journal recorded %d events", j.Recorded())
	}
}
