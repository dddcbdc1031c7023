// The online precision auditor: the runtime counterpart of the offline
// harness.Violations check. The protocol's contract is that on every
// suppressed tick the server's answer deviates from the ground-truth
// measurement by at most δ. The offline harness proves this after the
// fact; the auditor proves it *while the system runs*, from the same
// comparison — ground truth vs the server-side replica estimate — fed
// either directly (in-process systems, the harness) or from in-band
// gate events (a kfserver auditing its sources). Its verdicts are
// per-stream realized-error histograms and δ-violation counters in the
// telemetry registry, so a dashboard watching /metrics sees a bound
// violation the moment it happens.

package trace

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"kalmanstream/internal/telemetry"
)

// AuditStats is a snapshot of one stream's audit counters.
type AuditStats struct {
	StreamID string
	// Ticks is the number of audited ticks.
	Ticks int64
	// Suppressed is how many audited ticks were suppressed (the ticks
	// the δ guarantee applies to).
	Suppressed int64
	// Violations counts suppressed ticks whose realized error exceeded
	// the bound. Zero on loss-free links — anything else is a replica
	// divergence or a protocol bug.
	Violations int64
	// MaxRatio is the largest realized error/δ ratio seen on a
	// suppressed tick (≤ 1 when the bound held throughout).
	MaxRatio float64
	// LastViolationTick is the highest tick at which a δ violation was
	// observed, or -1 when the stream has none. Recovery assertions use
	// it: after a fault clears, no violation tick may exceed the clear
	// tick plus the allowed recovery window.
	LastViolationTick int64
}

// auditStream holds one stream's counters; all hot-path fields are
// atomic so Check never takes the auditor lock after the first tick.
type auditStream struct {
	id           string
	ticks        atomic.Int64
	suppressed   atomic.Int64
	violations   atomic.Int64
	maxRatioBits atomic.Uint64
	lastViolTick atomic.Int64 // highest violation tick + 1 (0 = none)
}

// Auditor maintains per-stream realized-error accounting. Check is safe
// for concurrent use across streams and cheap enough for per-tick use:
// a map read under RLock plus a handful of atomics.
type Auditor struct {
	mu      sync.RWMutex
	streams map[string]*auditStream
	journal *Journal

	// Cross-stream totals, maintained inline by Check: the registry
	// series are the aggregates, so a health monitor reads system-wide
	// numbers with a single atomic load instead of locking and summing
	// per-stream state. Auditors built over one registry share them.
	telTicks      *telemetry.Counter
	telSuppressed *telemetry.Counter
	telViolations *telemetry.Counter
	telRatio      *telemetry.Histogram
}

// NewAuditor returns an auditor exporting its totals (audit_ticks_total,
// audit_suppressed_total, audit_delta_violations_total,
// audit_error_ratio) through reg (nil means telemetry.Default) and
// recording violation events to journal (nil means no journal events).
func NewAuditor(reg *telemetry.Registry, journal *Journal) *Auditor {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.Help("audit_delta_violations_total", "suppressed ticks whose realized error exceeded the δ bound")
	reg.Help("audit_error_ratio", "realized error/δ per audited tick")
	return &Auditor{
		streams:       make(map[string]*auditStream),
		journal:       journal,
		telTicks:      reg.Counter("audit_ticks_total"),
		telSuppressed: reg.Counter("audit_suppressed_total"),
		telViolations: reg.Counter("audit_delta_violations_total"),
		telRatio:      reg.Histogram("audit_error_ratio", telemetry.RatioBuckets),
	}
}

func (a *Auditor) stream(id string) *auditStream {
	a.mu.RLock()
	st := a.streams[id]
	a.mu.RUnlock()
	if st != nil {
		return st
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if st = a.streams[id]; st != nil {
		return st
	}
	st = &auditStream{id: id}
	a.streams[id] = st
	return st
}

// Check audits one tick: deviation is the realized error between the
// ground-truth measurement and the server-side estimate, bound is the
// error the answer promised (δ on suppressed ticks, 0 when the tick's
// correction has been applied), and suppressed reports the gate's
// decision. A suppressed tick with deviation > bound is a δ violation.
func (a *Auditor) Check(streamID string, tick int64, deviation, bound float64, suppressed bool) {
	st := a.stream(streamID)
	st.ticks.Add(1)
	a.telTicks.Inc()
	if bound > 0 {
		a.telRatio.Observe(deviation / bound)
	}
	if !suppressed {
		return
	}
	st.suppressed.Add(1)
	a.telSuppressed.Inc()
	if ratio := ratioOf(deviation, bound); ratio > 0 {
		for {
			old := st.maxRatioBits.Load()
			if ratio <= math.Float64frombits(old) {
				break
			}
			if st.maxRatioBits.CompareAndSwap(old, math.Float64bits(ratio)) {
				break
			}
		}
	}
	if deviation > bound {
		st.violations.Add(1)
		a.telViolations.Inc()
		// CAS-max on tick+1 so the zero value still means "no violation"
		// for streams whose first violation is tick 0.
		for {
			old := st.lastViolTick.Load()
			if tick+1 <= old {
				break
			}
			if st.lastViolTick.CompareAndSwap(old, tick+1) {
				break
			}
		}
		if a.journal.Enabled() {
			a.journal.Record(Event{
				StreamID: streamID,
				Tick:     tick,
				Stage:    StageAudit,
				Outcome:  OutcomeViolation,
				Value:    deviation,
				Aux:      bound,
			})
		}
	}
}

// ratioOf returns deviation/bound, treating a zero bound with zero
// deviation as 0 and a zero bound with positive deviation as +Inf.
func ratioOf(deviation, bound float64) float64 {
	if bound > 0 {
		return deviation / bound
	}
	if deviation > 0 {
		return math.Inf(1)
	}
	return 0
}

// Ingest audits an in-band gate event (shipped from a source's journal
// over the wire): the event's Value is the gate's measured deviation
// and Aux the δ in force, which is exactly the ground-truth-vs-replica
// comparison Check wants. Non-gate events are ignored.
func (a *Auditor) Ingest(e Event) {
	if e.Stage != StageGate {
		return
	}
	a.Check(e.StreamID, e.Tick, e.Value, e.Aux, e.Outcome == OutcomeSuppressed)
}

// Stats returns one stream's audit snapshot (zero value if the stream
// was never audited).
func (a *Auditor) Stats(streamID string) AuditStats {
	a.mu.RLock()
	st := a.streams[streamID]
	a.mu.RUnlock()
	if st == nil {
		return AuditStats{StreamID: streamID, LastViolationTick: -1}
	}
	return st.snapshot()
}

func (st *auditStream) snapshot() AuditStats {
	return AuditStats{
		StreamID:          st.id,
		Ticks:             st.ticks.Load(),
		Suppressed:        st.suppressed.Load(),
		Violations:        st.violations.Load(),
		MaxRatio:          math.Float64frombits(st.maxRatioBits.Load()),
		LastViolationTick: st.lastViolTick.Load() - 1,
	}
}

// All returns every stream's audit snapshot sorted by stream ID.
func (a *Auditor) All() []AuditStats {
	a.mu.RLock()
	out := make([]AuditStats, 0, len(a.streams))
	for _, st := range a.streams {
		out = append(out, st.snapshot())
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StreamID < out[j].StreamID })
	return out
}

// WalkViolations calls visit with every audited stream's δ-violation
// count, under the auditor's read lock and in no particular order: the
// flight recorder's violations table, pulled on demand without a copy.
// visit must be cheap and must not call back into the auditor.
func (a *Auditor) WalkViolations(visit func(streamID string, violations int64)) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, st := range a.streams {
		visit(st.id, st.violations.Load())
	}
}

// TotalTicks returns the number of audited ticks across all streams —
// a lock-free aggregate suitable as a health-monitor rate source.
func (a *Auditor) TotalTicks() int64 { return a.telTicks.Value() }

// TotalSuppressed returns the suppressed-tick count across all streams.
func (a *Auditor) TotalSuppressed() int64 { return a.telSuppressed.Value() }

// TotalViolations returns the δ-violation count across all streams.
func (a *Auditor) TotalViolations() int64 { return a.telViolations.Value() }
