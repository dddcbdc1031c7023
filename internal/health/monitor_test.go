package health

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"

	"kalmanstream/internal/history"
	"kalmanstream/internal/telemetry"
)

// rig builds a monitor over reg (quiet, transitions into sink when set)
// bound to a store whose one tier is the monitor's windows, and returns
// the driver every composition runs: the store's tick, then the monitor's.
func rig(t testing.TB, reg *telemetry.Registry, cfg Config, sink *[]Transition) (*Monitor, *history.Store, func()) {
	t.Helper()
	cfg.Registry = reg
	cfg.Logger = slog.New(slog.DiscardHandler)
	if sink != nil {
		cfg.OnTransition = func(tr Transition) { *sink = append(*sink, tr) }
	}
	m := NewMonitor(cfg)
	st, err := history.NewStore(history.Config{Registry: reg,
		Tiers: []history.Tier{{Every: int64(m.cfg.WindowTicks), Len: m.cfg.Windows}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Bind(st); err != nil {
		t.Fatal(err)
	}
	return m, st, func() { st.Tick(); m.Tick() }
}

// TestBurnRateTable drives a deterministic violation schedule through a
// ratio SLO and asserts the exact transition sequence — multi-window
// gating (fast alone must not trip), escalation, and hysteresis
// de-bounce on the way down — with the burns the rings engine computed.
func TestBurnRateTable(t *testing.T) {
	reg := telemetry.New()
	bad := reg.Counter("bad_total")
	total := reg.Counter("all_total")
	var log []Transition
	m, _, tick := rig(t, reg, Config{
		WindowTicks: 1, Windows: 16, FastWindows: 2, SlowWindows: 4, ResolveAfter: 2,
	}, &log)
	// budget 0.05 with warn 2 / page 10: WARN at a 10% bad ratio over
	// both spans, PAGE at 50%.
	if err := m.RatioSLO("bad-ratio", "bad_total", "all_total", 0.05, Thresholds{WarnBurn: 2, PageBurn: 10}); err != nil {
		t.Fatal(err)
	}

	// Window schedule: bad events out of 100 per window.
	schedule := []int64{0, 0, 0, 20, 20, 80, 100, 0, 0, 0, 0}
	for _, b := range schedule {
		bad.Add(b)
		total.Add(100)
		tick()
	}

	type step struct {
		window     int64
		from       Severity
		to         Severity
		fast, slow float64
	}
	// w4 (bad 20): fast burn 2 but slow burn 1 — multi-window gate holds.
	// w5: fast 4, slow 2 → WARN. w7: fast 18, slow 11 → PAGE.
	// w9, w10: want OK; hysteresis (ResolveAfter 2) resolves at w10.
	want := []step{
		{window: 5, from: SevOK, to: SevWarn, fast: 4, slow: 2},
		{window: 7, from: SevWarn, to: SevPage, fast: 18, slow: 11},
		{window: 10, from: SevPage, to: SevOK, fast: 0, slow: 5},
	}
	if len(log) != len(want) {
		t.Fatalf("got %d transitions %+v, want %d", len(log), log, len(want))
	}
	for i, w := range want {
		tr := log[i]
		if tr.Window != w.window || tr.From != w.from || tr.To != w.to {
			t.Errorf("transition %d = %s→%s at window %d, want %s→%s at %d",
				i, tr.From, tr.To, tr.Window, w.from, w.to, w.window)
		}
		if tr.Tick != w.window || tr.BurnFast != w.fast || tr.BurnSlow != w.slow {
			t.Errorf("transition %d at tick %d burns (%v, %v), want tick %d burns (%v, %v)",
				i, tr.Tick, tr.BurnFast, tr.BurnSlow, w.window, w.fast, w.slow)
		}
	}
	if got := reg.Gauge("health_alerts_active").Value(); got != 0 {
		t.Errorf("health_alerts_active = %v after resolve, want 0", got)
	}
}

// TestGaugeSLOZeroBudget checks the streams_stale == 0 shape: any bad
// window burns infinitely fast and pages immediately; recovery resolves
// once the fast span is clean, damped by hysteresis.
func TestGaugeSLOZeroBudget(t *testing.T) {
	reg := telemetry.New()
	g := reg.Gauge("stale")
	var log []Transition
	m, _, tick := rig(t, reg, Config{
		WindowTicks: 1, Windows: 16, FastWindows: 2, SlowWindows: 8, ResolveAfter: 2,
	}, &log)
	if err := m.GaugeSLO("staleness", "stale", 0, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	tick()
	tick() // two clean windows
	g.Set(2)
	tick() // bad window → PAGE immediately
	if len(log) != 1 || log[0].To != SevPage {
		t.Fatalf("transitions after staleness = %+v, want one OK→PAGE", log)
	}
	g.Set(0)
	for i := 0; i < 4; i++ {
		tick() // fast span clean after 2, hysteresis resolves after 2 more
	}
	if len(log) != 2 || log[1].To != SevOK {
		t.Fatalf("transitions after recovery = %+v, want PAGE→OK appended", log)
	}
	if resolved := log[1].Tick - log[0].Tick; resolved > 4 {
		t.Errorf("resolve took %d ticks, want <= 4", resolved)
	}
}

// TestGaugeWindowSpike: a gauge that spikes and recovers between two
// window closes still marks that window — the window reads the tier
// bucket's maximum, not the value at the close.
func TestGaugeWindowSpike(t *testing.T) {
	reg := telemetry.New()
	g := reg.Gauge("stale")
	var log []Transition
	m, _, tick := rig(t, reg, Config{WindowTicks: 5, Windows: 4, FastWindows: 1, SlowWindows: 1}, &log)
	if err := m.GaugeSLO("staleness", "stale", 0, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		g.Set(0)
		if i == 2 {
			g.Set(3) // spike on the third tick, gone by the fourth
		}
		tick()
	}
	if len(log) != 1 || log[0].To != SevPage || log[0].Tick != 5 {
		t.Fatalf("transitions = %+v, want one page at the window's close (tick 5)", log)
	}
	if w := m.Snapshot().SLOs[0].Windows; len(w) != 1 || w[0] != 1 {
		t.Errorf("window bad ratios = %v, want [1]", w)
	}
}

// TestLatencySLO checks the quantile objective: a latency regression
// past the bound fires, staying under it does not.
func TestLatencySLO(t *testing.T) {
	reg := telemetry.New()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	var log []Transition
	m, _, tick := rig(t, reg, Config{WindowTicks: 1, Windows: 8, FastWindows: 2, SlowWindows: 4}, &log)
	// p99 < 10ms: budget 1%, so sustained 10%-slow traffic burns at 10x.
	if err := m.LatencySLO("frame-p99", "lat", 0.99, 0.01, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 99; i++ {
			h.Observe(0.0005)
		}
		h.Observe(0.05) // exactly 1% slow: burning at 1x budget, no alert
		tick()
	}
	if len(log) != 0 {
		t.Fatalf("within-budget traffic fired %+v", log)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 85; i++ {
			h.Observe(0.0005)
		}
		for i := 0; i < 15; i++ {
			h.Observe(0.05) // 15% slow: burn 15 → PAGE
		}
		tick()
	}
	if len(log) == 0 || log[len(log)-1].To != SevPage {
		t.Fatalf("latency regression transitions = %+v, want PAGE", log)
	}
}

// TestSLOOnLateCounterPages: an SLO may name counters the registry has
// not created yet. Windows closed before they exist hold no events, and
// the first window they appear in counts everything they counted, so the
// objective evaluates — and pages — from that window on.
func TestSLOOnLateCounterPages(t *testing.T) {
	reg := telemetry.New()
	var log []Transition
	m, _, tick := rig(t, reg, Config{WindowTicks: 5, Windows: 8, FastWindows: 1, SlowWindows: 2}, &log)
	if err := m.RatioSLO("late-ratio", "late_bad_total", "late_all_total", 0.01, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*5; i++ {
		tick() // four windows close before the counters exist
	}
	bad, all := reg.Counter("late_bad_total"), reg.Counter("late_all_total")
	for i := 0; i < 5; i++ {
		bad.Add(50)
		all.Add(100)
		tick()
	}
	if len(log) != 1 || log[0].To != SevPage || log[0].Window != 5 || log[0].Tick != 25 {
		t.Fatalf("transitions = %+v, want one page at window 5 (tick 25)", log)
	}
	if log[0].BurnFast != 50 || log[0].BurnSlow != 50 {
		t.Errorf("burns (%v, %v), want (50, 50): every late event counted", log[0].BurnFast, log[0].BurnSlow)
	}
}

// TestSLOValidation exercises declaration and binding error paths.
func TestSLOValidation(t *testing.T) {
	reg := telemetry.New()
	m := NewMonitor(Config{Registry: reg, WindowTicks: 10, Windows: 8})
	if err := m.RatioSLO("r", "c", "c", 0, Thresholds{}); err == nil {
		t.Error("RatioSLO accepted zero budget")
	}
	if err := m.RatioSLO("r", "c", "c", 0.5, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	if err := m.RatioSLO("r", "c", "c", 0.5, Thresholds{}); err == nil {
		t.Error("duplicate SLO accepted")
	}
	if err := m.LatencySLO("lat", "h", 1, 0.1, Thresholds{}); err == nil {
		t.Error("LatencySLO accepted quantile 1")
	}
	store := func(tiers ...history.Tier) *history.Store {
		st, err := history.NewStore(history.Config{Registry: reg, Tiers: tiers})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if err := m.Bind(nil); err == nil {
		t.Error("Bind accepted no store")
	}
	if err := m.Bind(store(history.Tier{Every: 1, Len: 8}, history.Tier{Every: 5, Len: 8})); err == nil {
		t.Error("Bind accepted a store without a 10-tick tier")
	}
	if err := m.Bind(store(history.Tier{Every: 1, Len: 8}, history.Tier{Every: 10, Len: 4})); err == nil {
		t.Error("Bind accepted a 10-tick tier shorter than Windows")
	}
	if err := m.Bind(store(history.Tier{Every: 1, Len: 8}, history.Tier{Every: 10, Len: 8})); err != nil {
		t.Fatalf("Bind rejected a fitting tier: %v", err)
	}
	if err := m.Bind(store(history.Tier{Every: 10, Len: 8})); err == nil {
		t.Error("a second Bind was accepted")
	}
}

// TestMonitorTickZeroAlloc pins the acceptance bound: the steady-state
// no-alert driver step — the store's tick, then the monitor's window
// evaluation over every SLO kind each tick — performs zero allocations.
func TestMonitorTickZeroAlloc(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter("good_total")
	bad := reg.Counter("bad_total")
	reg.Gauge("stale")
	h := reg.Histogram("lat", telemetry.LatencyBuckets)
	m, _, tick := rig(t, reg, Config{WindowTicks: 1, Windows: 32}, nil)
	if err := m.RatioSLO("ratio", "bad_total", "good_total", 0.01, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	if err := m.GaugeSLO("staleness", "stale", 0, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	if err := m.LatencySLO("latency", "lat", 0.99, 0.01, Thresholds{}); err != nil {
		t.Fatal(err)
	}
	step := func() {
		c.Add(10)
		bad.Add(0)
		h.Observe(0.0001)
		tick()
	}
	for i := 0; i < 4; i++ {
		step() // the store sees every series and sizes its scratch
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("steady-state driver step allocates %.2f per run, want 0", avg)
	}
	if a := testing.AllocsPerRun(1000, m.Tick); a != 0 {
		t.Errorf("a monitor Tick with no new bucket allocates %.2f, want 0", a)
	}
}

// TestConcurrentTickObserveSnapshot hammers window advance, telemetry
// observation, and snapshotting from separate goroutines — the -race
// coverage for the monitor's reads of the store.
func TestConcurrentTickObserveSnapshot(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter("events")
	g := reg.Gauge("level")
	h := reg.Histogram("lat", telemetry.LatencyBuckets)
	m, _, tick := rig(t, reg, Config{WindowTicks: 4, Windows: 8}, nil)
	for _, err := range []error{
		m.RatioSLO("ratio", "events", "events", 0.5, Thresholds{}),
		m.GaugeSLO("level", "level", 3, Thresholds{}),
		m.LatencySLO("lat", "lat", 0.99, 1e-3, Thresholds{}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	const iters = 5000
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			c.Inc()
			h.Observe(float64(i%100) * 1e-5)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			g.Set(float64(i % 7))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tick()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters/50; i++ {
			for _, s := range m.Snapshot().SLOs {
				for _, v := range s.Windows {
					if v < 0 || v > 1 {
						t.Errorf("SLO %s window bad ratio %v outside [0,1]", s.Name, v)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	if got := m.Snapshot().WindowsClosed; got != iters/4 {
		t.Errorf("closed %d windows, want %d", got, iters/4)
	}
}

// TestHandlers exercises the HTTP surface: liveness always up,
// readiness flipping on PAGE, and the JSON debug payload round-trip.
func TestHandlers(t *testing.T) {
	reg := telemetry.New()
	g := reg.Gauge("stale")
	m, _, tick := rig(t, reg, Config{WindowTicks: 1, Windows: 8, FastWindows: 1, SlowWindows: 2}, nil)
	if err := m.GaugeSLO("staleness", "stale", 0, Thresholds{}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	LivenessHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz = %d, want 200", rec.Code)
	}

	ready := ReadyHandler(m, func() error { return nil })
	rec = httptest.NewRecorder()
	ready.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Errorf("/readyz healthy = %d, want 200", rec.Code)
	}

	g.Set(1)
	tick() // staleness pages
	rec = httptest.NewRecorder()
	ready.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Errorf("/readyz paging = %d, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	failing := ReadyHandler(nil, func() error { return fmt.Errorf("replaying registrations") })
	failing.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Errorf("/readyz failing check = %d, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	Handler(m, func() []StreamStat {
		return []StreamStat{{ID: "s1", Sent: 10, Suppressed: 90, Delta: 0.5, Stale: true}}
	}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/health = %d, want 200", rec.Code)
	}
	var payload DebugPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("decode /debug/health: %v\n%s", err, rec.Body.String())
	}
	if payload.Severity != "page" || len(payload.Streams) != 1 || payload.Streams[0].ID != "s1" {
		t.Errorf("payload = severity %q, streams %+v", payload.Severity, payload.Streams)
	}
	if len(payload.Transitions) == 0 || payload.Transitions[0].ToName != "page" {
		t.Errorf("transitions = %+v, want OK→page", payload.Transitions)
	}
	if len(payload.SLOs) != 1 || len(payload.SLOs[0].Series) != 1 || payload.SLOs[0].Series[0] != "stale" {
		t.Errorf("SLO rows = %+v, want one naming its registry series", payload.SLOs)
	}
}
