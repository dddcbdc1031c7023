package trace

import (
	"math"
	"sync"
	"testing"

	"kalmanstream/internal/telemetry"
)

func TestAuditorCountsAndViolations(t *testing.T) {
	reg := telemetry.New()
	j := NewJournal(1, 16)
	j.SetEnabled(true)
	a := NewAuditor(reg, j)

	// Suppressed ticks inside the bound: no violations.
	a.Check("s", 0, 0.3, 0.5, true)
	a.Check("s", 1, 0.5, 0.5, true)
	// A sent tick with large deviation is NOT a violation (the
	// correction repaired it; bound 0 applies to the exact answer).
	a.Check("s", 2, 0.9, 0, false)
	// A suppressed tick above the bound IS a violation.
	a.Check("s", 3, 0.7, 0.5, true)

	st := a.Stats("s")
	if st.Ticks != 4 || st.Suppressed != 3 || st.Violations != 1 {
		t.Fatalf("stats = %+v, want ticks 4, suppressed 3, violations 1", st)
	}
	if got, want := st.MaxRatio, 0.7/0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxRatio = %g, want %g", got, want)
	}
	// The cross-stream totals, which feed the health monitor's SLO
	// tracks, are the registry's unlabelled counters.
	for series, want := range map[string]int64{"audit_ticks_total": 4, "audit_suppressed_total": 3, "audit_delta_violations_total": 1} {
		if got := reg.Counter(series).Value(); got != want {
			t.Fatalf("telemetry %s = %d, want %d", series, got, want)
		}
	}

	// The violation must surface in the journal too.
	evs := j.StreamEvents("s")
	if len(evs) != 1 || evs[0].Stage != StageAudit || evs[0].Outcome != OutcomeViolation || evs[0].Tick != 3 {
		t.Fatalf("journal events = %+v, want one violation at tick 3", evs)
	}
}

func TestAuditorIngestGateEvents(t *testing.T) {
	a := NewAuditor(telemetry.New(), nil)
	a.Ingest(Event{StreamID: "s", Tick: 0, Stage: StageGate, Outcome: OutcomeSuppressed, Value: 0.2, Aux: 0.5})
	a.Ingest(Event{StreamID: "s", Tick: 1, Stage: StageGate, Outcome: OutcomeSent, Value: 0.8, Aux: 0.5})
	// Suppressed above δ — a divergence shipped in-band.
	a.Ingest(Event{StreamID: "s", Tick: 2, Stage: StageGate, Outcome: OutcomeSuppressed, Value: 0.6, Aux: 0.5})
	// Non-gate events are ignored.
	a.Ingest(Event{StreamID: "s", Tick: 3, Stage: StageApply, Outcome: OutcomeApplied})

	st := a.Stats("s")
	if st.Ticks != 3 || st.Suppressed != 2 || st.Violations != 1 {
		t.Fatalf("stats = %+v, want ticks 3, suppressed 2, violations 1", st)
	}
}

func TestAuditorZeroBound(t *testing.T) {
	a := NewAuditor(telemetry.New(), nil)
	// δ = 0 means "ship everything"; a suppressed tick with any error
	// violates, and the ratio is +Inf.
	a.Check("s", 0, 0.1, 0, true)
	st := a.Stats("s")
	if st.Violations != 1 || !math.IsInf(st.MaxRatio, 1) {
		t.Fatalf("stats = %+v, want 1 violation with +Inf ratio", st)
	}
}

// TestAuditorConcurrent hammers Check across streams and goroutines;
// asserted by the race detector plus exact counts.
func TestAuditorConcurrent(t *testing.T) {
	a := NewAuditor(telemetry.New(), nil)
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w%4)) // contend on 4 shared streams
			for i := 0; i < perW; i++ {
				a.Check(id, int64(i), 0.4, 0.5, true)
				if i%128 == 0 {
					_ = a.All()
				}
			}
		}(w)
	}
	wg.Wait()
	var ticks int64
	for _, st := range a.All() {
		ticks += st.Ticks
		if st.Violations != 0 {
			t.Fatalf("spurious violations on %s: %+v", st.StreamID, st)
		}
	}
	if ticks != workers*perW {
		t.Fatalf("total audited ticks = %d, want %d", ticks, workers*perW)
	}
}

// TestAuditorTotalsAreRegistryCounters: under the concurrent hammer the
// registry's three unlabelled series and the sum of the per-stream
// records are one set of numbers, and the registry's size does not depend
// on how many streams were audited.
func TestAuditorTotalsAreRegistryCounters(t *testing.T) {
	reg := telemetry.New()
	a := NewAuditor(reg, nil)
	series := len(reg.Snapshot())
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := string(rune('a' + w%4))
			for i := 0; i < perW; i++ {
				// Every 5th tick ships; every 3rd suppressed one violates.
				a.Check(id, int64(i), 0.4+float64(i%3/2), 0.5, i%5 != 0)
			}
		}(w)
	}
	wg.Wait()
	var sum AuditStats
	for _, st := range a.All() {
		sum.Ticks += st.Ticks
		sum.Suppressed += st.Suppressed
		sum.Violations += st.Violations
	}
	if sum.Ticks != workers*perW || sum.Suppressed == 0 || sum.Violations == 0 || sum.Violations == sum.Suppressed {
		t.Fatalf("hammer did not mix outcomes: %+v", sum)
	}
	for series, want := range map[string]int64{
		"audit_ticks_total":            sum.Ticks,
		"audit_suppressed_total":       sum.Suppressed,
		"audit_delta_violations_total": sum.Violations,
	} {
		if got := reg.Counter(series).Value(); got != want {
			t.Errorf("%s: registry %d, sum over All() %d", series, got, want)
		}
	}
	if got := len(reg.Snapshot()); got != series {
		t.Errorf("auditing 4 streams grew the registry from %d to %d series", series, got)
	}
}
