// Package health is the stream-health and SLO layer: a stdlib-only
// rolling-window time-series engine over internal/telemetry handles,
// plus a burn-rate SLO evaluator with multi-window alerting.
//
// The rest of the observability stack (telemetry counters, the trace
// journal, the precision auditor) is cumulative: it can say how many δ
// violations have ever happened, but not whether they are happening
// *now*, or how fast the error budget is being spent. The Monitor
// closes that gap. It is driven by ticks — core.System ticks it once
// per Advance, a wire server once per wall-clock interval — and every
// WindowTicks ticks it closes a window: each tracked counter records
// its delta, each gauge its window maximum, each histogram its bucket
// deltas, and every declared SLO recomputes its fast/slow burn rates
// and steps its alert state machine (see slo.go).
//
// The steady-state tick path — no alert transitions — performs no
// allocation; rings are sized at track time and evaluation is pure
// arithmetic, so a Monitor can ride a per-tick hot loop (guarded by
// TestMonitorTickZeroAlloc and BenchmarkMonitorTick).
package health

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"kalmanstream/internal/telemetry"
)

// Config parameterizes a Monitor. The zero value is usable: every
// field has a default.
type Config struct {
	// WindowTicks is the number of Tick calls per window (default 1:
	// every tick closes a window — the natural setting for a wall-clock
	// driver ticking once per second).
	WindowTicks int
	// Windows is the ring length — how many closed windows of history
	// each tracked series keeps (default 64).
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

const (
	// ewmaAlpha smooths per-window counter rates.
	ewmaAlpha = 0.3
	// maxTransitions bounds the in-memory transition log (newest win).
	maxTransitions = 64
)

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

// Monitor is the rolling-window health engine. Track* and *SLO calls
// declare what to watch — before the first window closes. A series
// registered later would contribute zero-filled ring slots to every
// burn-rate span until its ring wrapped, silently corrupting the very
// alerts it was meant to feed, so the Track* methods reject late
// registration with an explicit error instead. Tick drives the engine.
// All methods are safe for concurrent use.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	tick         int64 // total Tick calls
	tickInWindow int
	closed       int64 // number of closed windows
	head         int   // ring slot of the most recent closed window

	counters []*counterTrack
	gauges   []*gaugeTrack
	hists    []*histTrack
	slos     []*sloState

	// Name indexes over the track slices, built at declaration time so
	// SLO wiring and duplicate checks are O(1) instead of a linear scan
	// over every tracked series.
	counterIdx map[string]*counterTrack
	gaugeIdx   map[string]*gaugeTrack
	histIdx    map[string]*histTrack

	// pending buffers transitions fired during the current Tick so the
	// OnTransition hook can run after the lock is released (nil in the
	// steady state, so the no-transition tick stays allocation-free).
	pending []Transition

	alertsActive *telemetry.Gauge

	transitions []Transition // ring, newest overwrite oldest
	transCount  int64        // total transitions ever recorded

	stopOnce  sync.Once
	startOnce sync.Once
	stopCh    chan struct{}
	doneCh    chan struct{}
	interval  time.Duration
}

// NewMonitor returns a Monitor with nothing tracked yet.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:          cfg,
		alertsActive: cfg.Registry.Gauge("health_alerts_active"),
		transitions:  make([]Transition, 0, maxTransitions),
		counterIdx:   make(map[string]*counterTrack),
		gaugeIdx:     make(map[string]*gaugeTrack),
		histIdx:      make(map[string]*histTrack),
		stopCh:       make(chan struct{}),
		doneCh:       make(chan struct{}),
	}
	cfg.Registry.Help("health_alerts_active", "SLO alerts currently in WARN or PAGE state")
	return m
}

// logger resolves the transition logger.
func (m *Monitor) logger() *slog.Logger {
	if m.cfg.Logger != nil {
		return m.cfg.Logger
	}
	return slog.Default()
}

// taken reports whether a name is already claimed by any track, via
// the declaration-time indexes.
func (m *Monitor) taken(name string) bool {
	return m.counterIdx[name] != nil || m.gaugeIdx[name] != nil || m.histIdx[name] != nil
}

// checkTrackable guards the Track* paths: duplicate names are rejected,
// and so is registration after the first window has closed — a late
// series would evaluate against zero-filled ring slots for a full ring
// wrap, skewing every burn rate computed over it. Caller holds mu.
func (m *Monitor) checkTrackable(name string) error {
	if m.taken(name) {
		return fmt.Errorf("health: series %q already tracked", name)
	}
	if m.closed > 0 {
		return fmt.Errorf("health: series %q registered after %d windows already closed; track series before the monitor's first window closes", name, m.closed)
	}
	return nil
}

// TrackCounter follows a telemetry counter under the given series name.
func (m *Monitor) TrackCounter(name string, c *telemetry.Counter) error {
	return m.trackCounter(name, c, nil)
}

// TrackCounterFunc follows a cumulative value produced by fn — the
// bridge for counters that live outside the telemetry registry (e.g.
// the precision auditor's cross-stream aggregates). fn must be safe for
// concurrent use and cheap: it runs on every window close.
func (m *Monitor) TrackCounterFunc(name string, fn func() int64) error {
	return m.trackCounter(name, nil, fn)
}

func (m *Monitor) trackCounter(name string, c *telemetry.Counter, fn func() int64) error {
	if c == nil && fn == nil {
		return fmt.Errorf("health: track %q: nil source", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkTrackable(name); err != nil {
		return err
	}
	t := &counterTrack{name: name, src: c, fn: fn, ring: make([]float64, m.cfg.Windows)}
	t.last = t.read()
	m.counters = append(m.counters, t)
	m.counterIdx[name] = t
	return nil
}

// TrackGauge follows a telemetry gauge, recording each window's
// maximum observed value (sampled once per tick).
func (m *Monitor) TrackGauge(name string, g *telemetry.Gauge) error {
	return m.trackGauge(name, g, nil)
}

// TrackGaugeFunc follows an instantaneous value produced by fn, with
// the same contract as TrackCounterFunc — except fn runs every tick
// (window maxima need per-tick samples).
func (m *Monitor) TrackGaugeFunc(name string, fn func() float64) error {
	return m.trackGauge(name, nil, fn)
}

func (m *Monitor) trackGauge(name string, g *telemetry.Gauge, fn func() float64) error {
	if g == nil && fn == nil {
		return fmt.Errorf("health: track %q: nil source", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkTrackable(name); err != nil {
		return err
	}
	t := &gaugeTrack{name: name, src: g, fn: fn, ring: make([]float64, m.cfg.Windows)}
	m.gauges = append(m.gauges, t)
	m.gaugeIdx[name] = t
	return nil
}

// TrackHistogram follows a telemetry histogram, recording per-window
// bucket-count deltas so windowed quantiles can be computed later.
func (m *Monitor) TrackHistogram(name string, h *telemetry.Histogram) error {
	if h == nil {
		return fmt.Errorf("health: track %q: nil source", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkTrackable(name); err != nil {
		return err
	}
	nb := h.NumBuckets()
	t := &histTrack{
		name:    name,
		src:     h,
		bounds:  h.Bounds(),
		nb:      nb,
		last:    make([]int64, nb),
		scratch: make([]int64, nb),
		ring:    make([]int64, nb*m.cfg.Windows),
	}
	h.ReadBuckets(t.last)
	m.hists = append(m.hists, t)
	m.histIdx[name] = t
	return nil
}

// findCounter/findGauge/findHist resolve tracked series by name
// through the indexes maintained at declaration time.
func (m *Monitor) findCounter(name string) *counterTrack { return m.counterIdx[name] }

func (m *Monitor) findGauge(name string) *gaugeTrack { return m.gaugeIdx[name] }

func (m *Monitor) findHist(name string) *histTrack { return m.histIdx[name] }

// RatioSLO declares "bad/total must stay below budget": e.g. a δ-audit
// objective with bad = audit_delta_violations_total, total =
// audit_ticks_total, budget = 0.01. Both series must already be
// tracked counters.
func (m *Monitor) RatioSLO(name, badSeries, totalSeries string, budget float64, th Thresholds) error {
	if budget <= 0 {
		return fmt.Errorf("health: SLO %q: ratio budget must be positive", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	bad, total := m.findCounter(badSeries), m.findCounter(totalSeries)
	if bad == nil || total == nil {
		return fmt.Errorf("health: SLO %q: untracked counter series (%q, %q)", name, badSeries, totalSeries)
	}
	return m.addSLO(&sloState{
		name: name, kind: sloRatio, budget: budget, th: th.withDefaults(),
		bad: bad, total: total,
	})
}

// GaugeSLO declares "the gauge must stay at or below max": e.g.
// streams_stale == 0. A window whose maximum exceeds max is a bad
// window, and the budget is zero — any bad window burns infinitely
// fast, so the alert severity is governed purely by how many windows
// (fast and slow spans) have seen the condition.
func (m *Monitor) GaugeSLO(name, series string, max float64, th Thresholds) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.findGauge(series)
	if g == nil {
		return fmt.Errorf("health: SLO %q: untracked gauge series %q", name, series)
	}
	return m.addSLO(&sloState{
		name: name, kind: sloGauge, th: th.withDefaults(),
		g: g, gaugeMax: max,
	})
}

// LatencySLO declares "the q-quantile must stay below bound": e.g. p99
// wire_frame_handle_seconds < 1ms. The error budget is 1−q (a p99
// objective tolerates 1% of events above the bound), and events above
// the bound are counted from the histogram's buckets — for exact
// accounting, bound should sit on a bucket edge.
func (m *Monitor) LatencySLO(name, series string, q, bound float64, th Thresholds) error {
	if q <= 0 || q >= 1 {
		return fmt.Errorf("health: SLO %q: quantile %v outside (0,1)", name, q)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.findHist(series)
	if h == nil {
		return fmt.Errorf("health: SLO %q: untracked histogram series %q", name, series)
	}
	good := sort.SearchFloat64s(h.bounds, bound)
	if good >= len(h.bounds) {
		return fmt.Errorf("health: SLO %q: bound %v above every bucket of %q", name, bound, series)
	}
	return m.addSLO(&sloState{
		name: name, kind: sloLatency, budget: 1 - q, th: th.withDefaults(),
		h: h, quantile: q, bound: bound, goodBucket: good,
	})
}

// addSLO appends an objective; caller holds mu.
func (m *Monitor) addSLO(s *sloState) error {
	for _, prev := range m.slos {
		if prev.name == s.name {
			return fmt.Errorf("health: SLO %q already declared", s.name)
		}
	}
	m.slos = append(m.slos, s)
	return nil
}

// Tick advances the monitor one step: gauges sample, and every
// WindowTicks ticks the current window closes and the SLOs re-evaluate.
// Call it once per core.System.Advance, or once per wall-clock interval
// via Start. The no-transition path performs no allocation.
func (m *Monitor) Tick() {
	m.mu.Lock()
	m.tick++
	for _, g := range m.gauges {
		g.sample()
	}
	m.tickInWindow++
	if m.tickInWindow >= m.cfg.WindowTicks {
		m.tickInWindow = 0
		m.closeWindow()
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

// closeWindow finalizes the open window and runs the SLO evaluation.
// Caller holds mu.
func (m *Monitor) closeWindow() {
	slot := int(m.closed % int64(m.cfg.Windows))
	for _, t := range m.counters {
		t.close(slot, m.cfg.WindowTicks)
	}
	for _, t := range m.gauges {
		t.close(slot)
	}
	for _, t := range m.hists {
		t.close(slot)
	}
	m.closed++
	m.head = slot
	if m.closed < int64(m.cfg.FastWindows) {
		return // not enough history to evaluate any burn rate yet
	}
	m.evalSLOs()
}

// span returns the effective span length, clipped to available history.
func (m *Monitor) span(want int) int {
	if int64(want) > m.closed {
		return int(m.closed)
	}
	return want
}

// burnOver computes one objective's burn rate over the most recent n
// closed windows. Caller holds mu.
func (m *Monitor) burnOver(s *sloState, n int) float64 {
	var bad, total float64
	w := m.cfg.Windows
	for j := 0; j < n; j++ {
		slot := (m.head - j + w) % w
		b, t := s.badTotal(slot)
		bad += b
		total += t
	}
	return burnRate(bad, total, s.budget)
}

// evalSLOs recomputes burn rates and steps each alert state machine.
// Caller holds mu.
func (m *Monitor) evalSLOs() {
	fast := m.span(m.cfg.FastWindows)
	slow := m.span(m.cfg.SlowWindows)
	active := 0
	for _, s := range m.slos {
		s.burnFast = m.burnOver(s, fast)
		s.burnSlow = m.burnOver(s, slow)
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

// Start launches a wall-clock driver calling Tick every interval —
// the mode a wire server uses, where no tick pipeline exists.
// Idempotent; Stop shuts it down.
func (m *Monitor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	m.startOnce.Do(func() {
		m.interval = interval
		go func() {
			defer close(m.doneCh)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-m.stopCh:
					return
				case <-t.C:
					m.Tick()
				}
			}
		}()
	})
}

// Stop halts the wall-clock driver and waits for it to exit. Safe to
// call multiple times and without a prior Start.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	if m.interval > 0 {
		<-m.doneCh
	}
}
