// Package health is the stream-health and SLO layer: burn-rate
// objectives over registry series, with multi-window alerting, evaluated
// on the windows the telemetry history store (internal/history) already
// keeps.
//
// The rest of the observability stack (telemetry counters, the trace
// journal, the precision auditor) is cumulative: it can say how many δ
// violations have ever happened, but not whether they are happening
// *now*, or how fast the error budget is being spent. The Monitor
// closes that gap without a second time-series engine: its windows are
// the buckets of the one store tier whose width is WindowTicks, bound
// once (Bind) by the composition that ticks both — core.System per
// Advance, kfserver per -history-interval — store first, then monitor.
// Each time that tier has closed a new bucket, every declared SLO
// recomputes its fast/slow burn rates and steps its alert state machine
// (see slo.go).
//
// The steady-state tick path — no alert transitions — performs no
// allocation; evaluation is arithmetic over the store's rings, so a
// Monitor can ride a per-tick hot loop (guarded by
// TestMonitorTickZeroAlloc and BenchmarkMonitorTick).
package health

import (
	"fmt"
	"log/slog"
	"sync"

	"kalmanstream/internal/history"
	"kalmanstream/internal/telemetry"
)

// Config parameterizes a Monitor. The zero value is usable: every
// field has a default.
type Config struct {
	// WindowTicks is the window width in store ticks (default 1): the
	// monitor reads the store tier whose buckets are this wide.
	WindowTicks int
	// Windows is how far back the monitor looks, in windows (default
	// 64): the burn-rate spans are clipped to it, Snapshot shows the last
	// Windows of them, and the tier must retain at least this many.
	Windows int
	// FastWindows and SlowWindows are the burn-rate spans, in windows
	// (defaults 2 and 12). The fast span reacts, the slow span confirms.
	FastWindows int
	SlowWindows int
	// ResolveAfter is the hysteresis de-bounce: an alert steps down only
	// after its computed severity has stayed below the current one for
	// this many consecutive window evaluations (default 2).
	ResolveAfter int
	// Logger receives alert transitions as structured records (default
	// slog.Default()).
	Logger *slog.Logger
	// Registry hosts the health_alerts_active gauge (default
	// telemetry.Default).
	Registry *telemetry.Registry
	// OnTransition, when set, is called synchronously from Tick for
	// every alert state change, in firing order, AFTER the monitor
	// lock is released — so the hook may call back into the Monitor
	// (the diag flight recorder captures a Snapshot inside it, the
	// chaos harness asserts that faults fire the right alerts).
	OnTransition func(Transition)
}

// maxTransitions bounds the in-memory transition log (newest win).
const maxTransitions = 64

func (c Config) withDefaults() Config {
	if c.WindowTicks <= 0 {
		c.WindowTicks = 1
	}
	if c.Windows <= 0 {
		c.Windows = 64
	}
	if c.FastWindows <= 0 {
		c.FastWindows = 2
	}
	if c.SlowWindows <= 0 {
		c.SlowWindows = 12
	}
	if c.SlowWindows > c.Windows {
		c.SlowWindows = c.Windows
	}
	if c.FastWindows > c.SlowWindows {
		c.FastWindows = c.SlowWindows
	}
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = 2
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// Monitor is the burn-rate engine. *SLO calls declare what to watch, Bind
// names the store whose tier holds the windows, and Tick evaluates. All
// methods are safe for concurrent use.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	store *history.Store
	tier  int

	// tick and closed are the store tick and tier bucket count as of the
	// last evaluation — the clock transitions are stamped with.
	tick   int64
	closed int64

	slos []*sloState

	// pending buffers transitions fired during the current Tick so the
	// OnTransition hook can run after the lock is released (nil in the
	// steady state, so the no-transition tick stays allocation-free).
	pending []Transition

	alertsActive *telemetry.Gauge

	transitions []Transition // ring, newest overwrite oldest
	transCount  int64        // total transitions ever recorded
}

// NewMonitor returns a Monitor with no objectives and no store yet.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:          cfg,
		alertsActive: cfg.Registry.Gauge("health_alerts_active"),
		transitions:  make([]Transition, 0, maxTransitions),
	}
	cfg.Registry.Help("health_alerts_active", "SLO alerts currently in WARN or PAGE state")
	return m
}

// Bind points the monitor at the store it reads: its windows are the
// buckets of st's WindowTicks-wide tier, which must keep at least
// Windows of them. A monitor is bound once, by whatever ticks both.
func (m *Monitor) Bind(st *history.Store) error {
	if st == nil {
		return fmt.Errorf("health: the monitor reads a telemetry history store, and none is attached")
	}
	k, err := st.TierFor(int64(m.cfg.WindowTicks), m.cfg.Windows)
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store != nil {
		return fmt.Errorf("health: monitor already bound to a store")
	}
	m.store, m.tier = st, k
	return nil
}

// logger resolves the transition logger.
func (m *Monitor) logger() *slog.Logger {
	if m.cfg.Logger != nil {
		return m.cfg.Logger
	}
	return slog.Default()
}

// RatioSLO declares "bad/total must stay below budget": e.g. a δ-audit
// objective with bad = audit_delta_violations_total, total =
// audit_ticks_total, budget = 0.01. Both name registry counters.
func (m *Monitor) RatioSLO(name, badSeries, totalSeries string, budget float64, th Thresholds) error {
	if budget <= 0 {
		return fmt.Errorf("health: SLO %q: ratio budget must be positive", name)
	}
	return m.addSLO(&sloState{name: name, kind: sloRatio, budget: budget, th: th.withDefaults(),
		series: []string{badSeries, totalSeries}})
}

// GaugeSLO declares "the gauge must stay at or below max": e.g.
// streams_stale == 0. A window whose maximum exceeds max is a bad
// window, and the budget is zero — any bad window burns infinitely
// fast, so the alert severity is governed purely by how many windows
// (fast and slow spans) have seen the condition.
func (m *Monitor) GaugeSLO(name, series string, max float64, th Thresholds) error {
	return m.addSLO(&sloState{name: name, kind: sloGauge, th: th.withDefaults(),
		series: []string{series}, gaugeMax: max})
}

// LatencySLO declares "the q-quantile must stay below bound": e.g. p99
// wire_frame_handle_seconds{kind="message"} < 10ms. The error budget is
// 1−q (a p99 objective tolerates 1% of events above the bound), and
// events above the bound are counted from the histogram's buckets — for
// exact accounting, bound should sit on a bucket edge; a bound past
// every finite edge counts nothing.
func (m *Monitor) LatencySLO(name, series string, q, bound float64, th Thresholds) error {
	if q <= 0 || q >= 1 {
		return fmt.Errorf("health: SLO %q: quantile %v outside (0,1)", name, q)
	}
	return m.addSLO(&sloState{name: name, kind: sloLatency, budget: 1 - q, th: th.withDefaults(),
		series: []string{series}, bound: bound, goodBucket: -1})
}

// addSLO appends an objective under a unique name.
func (m *Monitor) addSLO(s *sloState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, prev := range m.slos {
		if prev.name == s.name {
			return fmt.Errorf("health: SLO %q already declared", s.name)
		}
	}
	m.slos = append(m.slos, s)
	return nil
}

// Tick evaluates the SLOs if the store's tier has closed a bucket since
// the last evaluation, and is a no-op otherwise (or while unbound). Call
// it right after the store's Tick, from the same driver. The
// no-transition path performs no allocation.
func (m *Monitor) Tick() {
	m.mu.Lock()
	if m.store != nil {
		m.store.Read(m.tier, m.evaluate)
	}
	// Deliver transitions after releasing the lock so the hook may call
	// back into the Monitor (e.g. the flight recorder snapshotting the
	// window state mid-capture). pending is nil on the steady-state
	// path, so no-transition ticks stay allocation-free.
	var fired []Transition
	if len(m.pending) > 0 {
		fired = m.pending
		m.pending = nil
	}
	m.mu.Unlock()
	for _, tr := range fired {
		m.cfg.OnTransition(tr)
	}
}

// evaluate runs one evaluation per newly closed bucket. Caller holds mu.
func (m *Monitor) evaluate(v history.View) {
	if v.Closed() == m.closed {
		return
	}
	m.tick, m.closed = v.Tick(), v.Closed()
	if m.closed < int64(m.cfg.FastWindows) {
		return // not enough history to evaluate any burn rate yet
	}
	fast := m.span(m.cfg.FastWindows)
	slow := m.span(m.cfg.SlowWindows)
	active := 0
	for _, s := range m.slos {
		s.burnFast = burnOver(v, s, fast)
		s.burnSlow = burnOver(v, s, slow)
		want := s.wanted(s.burnFast, s.burnSlow)
		switch {
		case want > s.sev:
			// Escalation is immediate: a burning budget must not wait out
			// a de-bounce.
			m.transition(s, want)
			s.cleanEvals = 0
		case want < s.sev:
			// De-escalation is damped: the computed severity must hold
			// below the current one for ResolveAfter consecutive evals.
			s.cleanEvals++
			if s.cleanEvals >= m.cfg.ResolveAfter {
				m.transition(s, want)
				s.cleanEvals = 0
			}
		default:
			s.cleanEvals = 0
		}
		if s.sev > SevOK {
			active++
		}
	}
	m.alertsActive.Set(float64(active))
}

// span returns the effective span length, clipped to available history.
func (m *Monitor) span(want int) int {
	if int64(want) > m.closed {
		return int(m.closed)
	}
	return want
}

// burnOver computes one objective's burn rate over the most recent n
// windows, summed newest first.
func burnOver(v history.View, s *sloState, n int) float64 {
	var bad, total float64
	for j := int64(0); j < int64(n); j++ {
		b, t := s.badTotal(v, j)
		bad += b
		total += t
	}
	return burnRate(bad, total, s.budget)
}

// transition applies one alert state change and emits it. Caller holds
// mu; the logger runs under it, which keeps the transition order
// globally consistent, while the OnTransition hook is deferred to the
// end of Tick (outside the lock) via the pending buffer.
func (m *Monitor) transition(s *sloState, to Severity) {
	tr := Transition{
		SLO:      s.name,
		From:     s.sev,
		To:       to,
		FromName: s.sev.String(),
		ToName:   to.String(),
		Tick:     m.tick,
		Window:   m.closed,
		BurnFast: s.burnFast,
		BurnSlow: s.burnSlow,
	}
	s.sev = to
	if to == SevOK {
		s.sinceTick = 0
	} else if tr.From == SevOK {
		s.sinceTick = m.tick
	}
	if len(m.transitions) < cap(m.transitions) {
		m.transitions = append(m.transitions, tr)
	} else {
		m.transitions[m.transCount%int64(cap(m.transitions))] = tr
	}
	m.transCount++
	lg := m.logger()
	if to > SevOK {
		lg.Warn("health: alert", "slo", s.name, "from", tr.FromName, "to", tr.ToName,
			"burn_fast", tr.BurnFast, "burn_slow", tr.BurnSlow, "tick", tr.Tick)
	} else {
		lg.Info("health: alert resolved", "slo", s.name, "from", tr.FromName,
			"burn_fast", tr.BurnFast, "burn_slow", tr.BurnSlow, "tick", tr.Tick)
	}
	if m.cfg.OnTransition != nil {
		m.pending = append(m.pending, tr)
	}
}

// ActiveAlerts returns the number of SLOs currently in WARN or PAGE.
func (m *Monitor) ActiveAlerts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.slos {
		if s.sev > SevOK {
			n++
		}
	}
	return n
}

// Severity returns the worst active severity across all SLOs.
func (m *Monitor) Severity() Severity {
	m.mu.Lock()
	defer m.mu.Unlock()
	worst := SevOK
	for _, s := range m.slos {
		if s.sev > worst {
			worst = s.sev
		}
	}
	return worst
}
