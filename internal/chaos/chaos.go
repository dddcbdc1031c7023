// Package chaos drives deterministic fault schedules through the
// dual-predictor pipeline and asserts bounded-staleness recovery: after
// the last fault clears, the online precision audit must go quiet — no
// further δ violations — within a configurable window. Faults are
// injected by mutating a stream's netsim links between ticks (loss
// bursts, delay spikes, reordering, duplication, full partitions), so a
// run is exactly reproducible from its seed and schedule.
package chaos

import (
	"fmt"
	"log/slog"
	"strings"

	"kalmanstream/internal/core"
	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// Fault is one impairment episode on the stream's links, active on
// ticks in [From, Until). Overlapping faults compose: they are applied
// in schedule order each tick, later entries overriding earlier ones
// field by field (a zero field inherits).
type Fault struct {
	// Name labels the episode in reports ("loss-burst", "partition").
	Name string
	// From and Until bound the episode: active while From <= tick < Until.
	From, Until int64
	// DropProb drops each uplink message independently.
	DropProb float64
	// DelayTicks holds uplink messages for this many ticks.
	DelayTicks int
	// DuplicateProb delivers an uplink message twice.
	DuplicateProb float64
	// ReorderProb lets a delayed message slip one tick further, landing
	// behind its successor.
	ReorderProb float64
	// Partition takes the uplink fully down; with the watchdog armed the
	// feedback channel goes down too (a real partition cuts both ways).
	Partition bool
	// FeedbackDropProb impairs the server→source feedback channel, so
	// watchdog resync requests themselves get lost.
	FeedbackDropProb float64
	// Restart kills and recovers the server at tick From (Until is
	// ignored): the WAL is synced, every replica dropped wholesale, and
	// the durable state replayed — SIGKILL at a flush boundary. Requires
	// Config.WALDir; cannot be combined with link impairments in the
	// same fault entry (schedule a separate fault for that). Streams is
	// ignored: a crash takes the whole server.
	Restart bool
	// Streams limits the fault to the named streams (all when empty) —
	// a partial blackout impairs a subset while the rest stay healthy,
	// which is what lets the harness assert that incident bundles
	// attribute the fault to the right streams.
	Streams []string
}

func (f Fault) String() string {
	var parts []string
	if f.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop %.0f%%", 100*f.DropProb))
	}
	if f.DelayTicks > 0 {
		parts = append(parts, fmt.Sprintf("delay %d", f.DelayTicks))
	}
	if f.DuplicateProb > 0 {
		parts = append(parts, fmt.Sprintf("dup %.0f%%", 100*f.DuplicateProb))
	}
	if f.ReorderProb > 0 {
		parts = append(parts, fmt.Sprintf("reorder %.0f%%", 100*f.ReorderProb))
	}
	if f.Partition {
		parts = append(parts, "partition")
	}
	if f.FeedbackDropProb > 0 {
		parts = append(parts, fmt.Sprintf("fb-drop %.0f%%", 100*f.FeedbackDropProb))
	}
	if f.Restart {
		parts = append(parts, "server restart")
	}
	if len(parts) == 0 {
		parts = append(parts, "clean")
	}
	if len(f.Streams) > 0 {
		parts = append(parts, "on "+strings.Join(f.Streams, ","))
	}
	return fmt.Sprintf("%s [%d,%d): %s", f.Name, f.From, f.Until, strings.Join(parts, ", "))
}

// appliesTo reports whether the fault impairs the given stream.
func (f Fault) appliesTo(id string) bool {
	if len(f.Streams) == 0 {
		return true
	}
	for _, s := range f.Streams {
		if s == id {
			return true
		}
	}
	return false
}

// Schedule is an ordered fault plan.
type Schedule []Fault

// Validate rejects malformed schedules before a run starts.
func (s Schedule) Validate() error {
	for i, f := range s {
		if f.From < 0 || f.Until <= f.From {
			return fmt.Errorf("chaos: fault %d (%s): bad range [%d,%d)", i, f.Name, f.From, f.Until)
		}
		for _, p := range []float64{f.DropProb, f.DuplicateProb, f.ReorderProb, f.FeedbackDropProb} {
			if p < 0 || p > 1 {
				return fmt.Errorf("chaos: fault %d (%s): probability %v outside [0,1]", i, f.Name, p)
			}
		}
		if f.DelayTicks < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative delay", i, f.Name)
		}
		if f.Restart && (f.DropProb > 0 || f.DelayTicks > 0 || f.DuplicateProb > 0 ||
			f.ReorderProb > 0 || f.Partition || f.FeedbackDropProb > 0) {
			return fmt.Errorf("chaos: fault %d (%s): restart cannot combine with link impairments", i, f.Name)
		}
	}
	return nil
}

// ClearTick is the first tick with every fault over (0 for an empty
// schedule).
func (s Schedule) ClearTick() int64 {
	var clear int64
	for _, f := range s {
		if f.Until > clear {
			clear = f.Until
		}
	}
	return clear
}

// linkSettings is the composed impairment state at one tick.
type linkSettings struct {
	drop    float64
	delay   int
	dup     float64
	reorder float64
	down    bool
	fbDrop  float64
}

// at composes the active faults for one stream at one tick, later
// entries overriding earlier ones field by field. Faults naming other
// streams are skipped.
func (s Schedule) at(tick int64, streamID string) linkSettings {
	var ls linkSettings
	for _, f := range s {
		if tick < f.From || tick >= f.Until || !f.appliesTo(streamID) {
			continue
		}
		if f.DropProb > 0 {
			ls.drop = f.DropProb
		}
		if f.DelayTicks > 0 {
			ls.delay = f.DelayTicks
		}
		if f.DuplicateProb > 0 {
			ls.dup = f.DuplicateProb
		}
		if f.ReorderProb > 0 {
			ls.reorder = f.ReorderProb
		}
		if f.Partition {
			ls.down = true
		}
		if f.FeedbackDropProb > 0 {
			ls.fbDrop = f.FeedbackDropProb
		}
	}
	return ls
}

// Config parameterizes one chaos run. The zero value is a usable smoke
// test: a sine stream, heartbeats, a derived watchdog deadline, and no
// faults.
type Config struct {
	// Ticks is the run length (default 5000).
	Ticks int64
	// Seed drives the generator and both links (default 1).
	Seed int64
	// Delta is the precision bound δ (default 0.5).
	Delta float64
	// HeartbeatEvery bounds gate silence (default 25). The watchdog
	// deadline derives from it (2×) unless WatchdogDeadline overrides.
	HeartbeatEvery int64
	// WatchdogDeadline overrides the derived staleness deadline
	// (negative disables the watchdog — the control arm for experiments).
	WatchdogDeadline int64
	// ResyncEvery upgrades every Nth correction to a snapshot resync
	// (0 = only the watchdog forces resyncs).
	ResyncEvery int64
	// RecoveryWindow is the bounded-staleness budget: ticks after
	// Schedule.ClearTick within which the last audit violation must
	// fall (default 4× the effective watchdog deadline, or 200 with the
	// watchdog off).
	RecoveryWindow int64
	// Schedule is the fault plan.
	Schedule Schedule
	// Trace optionally attaches a lifecycle journal (nil = none; runs
	// stay quiet on trace.Default).
	Trace *trace.Journal
	// DisableHealth turns the SLO monitor and the telemetry history
	// store its windows live in off — the unarmed control arm for
	// asserting that monitoring and retrospective recording are pure
	// observers (armed and unarmed runs must produce byte-identical
	// summaries).
	DisableHealth bool
	// Streams is the number of concurrently attached streams (default
	// 1 — the classic single-stream run). Streams are named "chaos-1"
	// through "chaos-N", each with its own generator and link seeds, so
	// faults can impair a subset via Fault.Streams.
	Streams int
	// DisableDiag turns the flight recorder off — the unarmed control
	// arm for asserting that diagnostics are a pure observer (armed and
	// unarmed loss-free runs must produce byte-identical summaries).
	DisableDiag bool
	// BundleDir, when set, spools captured incident bundles to disk
	// (the chaos-smoke CI artifact).
	BundleDir string
	// WALDir enables the durability layer (core.SystemConfig.WALDir):
	// required for schedules with Restart faults, and asserted to be a
	// pure observer otherwise — a run with the log on produces a
	// byte-identical Summary to the same run with it off.
	WALDir string
	// CheckpointEveryTicks writes a predictor-snapshot checkpoint on
	// this cadence (0 = never), bounding how much of the log a restart
	// replays.
	CheckpointEveryTicks int64
	// DisableFreshness turns off end-to-end latency stamping — the
	// unstamped control arm. Stamping is asserted to be a pure observer:
	// a stamped loss-free run produces a byte-identical Summary to an
	// unstamped control (the report deducts the stamp's fixed 8-byte
	// wire overhead, so the classic artifact counts protocol payload in
	// both arms).
	DisableFreshness bool
}

func (c Config) withDefaults() Config {
	if c.Ticks <= 0 {
		c.Ticks = 5000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delta <= 0 {
		c.Delta = 0.5
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 25
	}
	if c.Streams <= 0 {
		c.Streams = 1
	}
	return c
}

// deadline resolves the effective watchdog deadline the run will use.
func (c Config) deadline() int64 {
	if c.WatchdogDeadline != 0 {
		return c.WatchdogDeadline
	}
	if c.HeartbeatEvery > 0 {
		return 2 * c.HeartbeatEvery
	}
	return 0
}

// Report summarizes one chaos run.
type Report struct {
	Ticks    int64
	Messages int64
	Bytes    int64
	// Gate counters: heartbeats, snapshot resyncs, and the recovery
	// loop's specific traffic — resync requests received and the forced
	// resyncs they (and only they) triggered.
	Heartbeats     int64
	Resyncs        int64
	ResyncRequests int64
	ForcedResyncs  int64
	// Fault-injection effects.
	Dropped         int64
	FeedbackDropped int64
	// StaleEpisodes counts transitions into the stale state — how many
	// times the watchdog independently detected silence.
	StaleEpisodes int64
	// Audit is the online auditor's verdict over every tick.
	Audit trace.AuditStats
	// ClearTick and RecoveryWindow frame the bounded-staleness check;
	// Recovered is its verdict: no audit violation at or after
	// ClearTick+RecoveryWindow. LastViolation repeats
	// Audit.LastViolationTick for the summary (-1 = none).
	ClearTick      int64
	RecoveryWindow int64
	Recovered      bool
	LastViolation  int64
	// Alerts is the SLO monitor's transition log (empty when the monitor
	// was disabled or the run stayed healthy).
	Alerts []health.Transition
	// NeverCleared lists objectives still non-OK when the run ended — a
	// fault whose alert never resolved.
	NeverCleared []string
	// Bundles holds the flight recorder's incident captures, oldest
	// first (empty when diag was disabled or nothing paged).
	Bundles []diag.Bundle
	// UnbundledPages counts page transitions not covered by any
	// captured bundle's dedupe window — always zero unless bundle
	// capture itself is broken, which is exactly what chaos-smoke
	// gates on.
	UnbundledPages int
	// History is the full finest-tier telemetry-history dump at run
	// end (nil when health was disabled) — the chaos-smoke artifact
	// behind `streamkf chaos -history-out`. Never rendered by the
	// summaries, so the byte-identity control arms stay valid.
	History *history.DumpPayload
	// Durability fields (RecoverySummary; never rendered by Summary, so
	// a restart run can be compared byte-for-byte against a control that
	// never died). Restarts counts executed Restart faults;
	// RestoredStreams and ReplayedRecords aggregate what their
	// recoveries restored from checkpoints and replayed from the log;
	// PostRestartResyncRequests counts watchdog resync requests first
	// observed at or after the first restart — the resync-storm signal,
	// which recovery from the log must keep at zero on an otherwise
	// healthy run.
	Restarts                  int64
	RestoredStreams           int64
	ReplayedRecords           int64
	PostRestartResyncRequests int64
	// Freshness fields (FreshnessSummary; never rendered by Summary, so
	// the stamped/unstamped control arms stay valid). FreshnessSpans
	// counts recorded gate→apply spans; P50/P99 are the run-end
	// quantiles. DelayFaults counts schedule entries that injected
	// delay; when any exist the envelope verdict applies:
	// FreshnessDegraded means the freshness SLO left OK during the run
	// (the delay burst was observed), FreshnessCleared means it was OK
	// again when the run ended (the degradation resolved).
	FreshnessSpans             int64
	FreshnessP50, FreshnessP99 float64
	DelayFaults                int
	FreshnessDegraded          bool
	FreshnessCleared           bool
}

// Summary renders the report as the plain-text block the chaos smoke
// artifact publishes.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run: %d ticks, %d corrections (%d bytes), %d heartbeats\n",
		r.Ticks, r.Messages, r.Bytes, r.Heartbeats)
	fmt.Fprintf(&b, "faults: %d uplink drops, %d feedback drops\n", r.Dropped, r.FeedbackDropped)
	fmt.Fprintf(&b, "recovery loop: %d stale episodes, %d resync requests, %d forced resyncs, %d resyncs total\n",
		r.StaleEpisodes, r.ResyncRequests, r.ForcedResyncs, r.Resyncs)
	fmt.Fprintf(&b, "audit: %d ticks, %d violations, max err/δ ratio %.2f, last violation tick %d\n",
		r.Audit.Ticks, r.Audit.Violations, r.Audit.MaxRatio, r.LastViolation)
	verdict := "RECOVERED"
	if !r.Recovered {
		verdict = "NOT RECOVERED"
	}
	fmt.Fprintf(&b, "bounded staleness: %s (fault clear tick %d, window %d)\n",
		verdict, r.ClearTick, r.RecoveryWindow)
	return b.String()
}

// HealthSummary renders the SLO monitor's view of the run: every alert
// transition plus any objective that never cleared. Kept separate from
// Summary so the classic chaos artifact stays byte-identical whether or
// not the monitor is armed.
func (r Report) HealthSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health: %d alert transitions, %d never cleared\n",
		len(r.Alerts), len(r.NeverCleared))
	for _, tr := range r.Alerts {
		fmt.Fprintf(&b, "  tick %6d  %-12s %s -> %s (burn fast %.2f, slow %.2f)\n",
			tr.Tick, tr.SLO, tr.From, tr.To, tr.BurnFast, tr.BurnSlow)
	}
	for _, name := range r.NeverCleared {
		fmt.Fprintf(&b, "  NEVER CLEARED: %s\n", name)
	}
	return b.String()
}

// BundleSummary renders the flight recorder's view of the run: each
// captured bundle with its top stale-stream attribution, plus the
// page-coverage verdict chaos-smoke gates on. Kept separate from
// Summary and HealthSummary so both stay byte-identical whether or not
// the recorder is armed.
func (r Report) BundleSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bundles: %d captured, %d pages without a bundle\n",
		len(r.Bundles), r.UnbundledPages)
	for _, bd := range r.Bundles {
		fmt.Fprintf(&b, "  %s (%s)\n", bd.ID, bd.Reason)
		if stale := bd.TopK[diag.SketchStale]; len(stale) > 0 {
			var rows []string
			for _, it := range stale {
				rows = append(rows, fmt.Sprintf("%s=%d", it.ID, it.Count))
			}
			fmt.Fprintf(&b, "    stale offenders: %s\n", strings.Join(rows, ", "))
		}
	}
	return b.String()
}

// FreshnessSummary renders the time-bound view of the run: how many
// latency spans were recorded, their quantiles, and — when the schedule
// injected delay — the degradation-envelope verdict chaos-smoke gates
// on. Kept separate from Summary so the stamped and unstamped arms of
// the classic artifact stay byte-identical.
func (r Report) FreshnessSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "freshness: %d spans, p50 %.4fs, p99 %.4fs\n",
		r.FreshnessSpans, r.FreshnessP50, r.FreshnessP99)
	verdict := "N/A (no delay faults)"
	if r.DelayFaults > 0 {
		switch {
		case r.FreshnessDegraded && r.FreshnessCleared:
			verdict = "DEGRADED+CLEARED"
		case !r.FreshnessDegraded:
			verdict = "NOT DEGRADED"
		default:
			verdict = "NOT CLEARED"
		}
	}
	fmt.Fprintf(&b, "freshness envelope: %s (delay faults %d)\n", verdict, r.DelayFaults)
	return b.String()
}

// RecoverySummary renders the durability view of the run: what each
// server restart restored and replayed, and whether recovery stayed
// storm-free. Kept separate from Summary so a restart run's classic
// artifact can be compared byte-for-byte against a never-killed
// control's.
func (r Report) RecoverySummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "durability: %d server restarts, %d streams restored from checkpoint, %d records replayed\n",
		r.Restarts, r.RestoredStreams, r.ReplayedRecords)
	fmt.Fprintf(&b, "post-restart resync requests: %d\n", r.PostRestartResyncRequests)
	return b.String()
}

// StreamID is the stream a chaos run attaches.
const StreamID = "chaos-1"

// deltaBudget is the δ-violation error budget per audited tick for the
// burn-rate SLO: a sustained 4% violation ratio burns at 2× and warns,
// 20% burns at 10× and pages.
const deltaBudget = 0.02

// FreshnessP99Bound is the chaos runs' gate→apply latency objective:
// 2.5ms of virtual time. The simulation delivers un-delayed corrections
// within their tick (span ≈ 0), while a delay fault of d ≥ 5 ticks
// records ~d × core.FreshnessTickPeriod = d ms spans — decisively past
// the bound, so the burst degrades the SLO, and decisively cleared once
// the fault lifts. Must sit on a telemetry.LatencyBuckets bound.
const FreshnessP99Bound = 2.5e-3

// streamIDs names the n attached streams: "chaos-1" .. "chaos-N".
func streamIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("chaos-%d", i+1)
	}
	return ids
}

// Run executes one fault schedule and reports whether the recovery loop
// restored precision within the bounded-staleness window.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Schedule.Validate(); err != nil {
		return Report{}, err
	}
	hasRestart := false
	for _, f := range cfg.Schedule {
		if f.Restart {
			hasRestart = true
		}
	}
	if hasRestart && cfg.WALDir == "" {
		return Report{}, fmt.Errorf("chaos: schedule has restart faults but Config.WALDir is unset")
	}
	tr := cfg.Trace
	if tr == nil {
		tr = trace.NewJournal(1, 1) // disabled, private: no trace.Default noise
	}
	reg := telemetry.New()
	rep := Report{ClearTick: cfg.Schedule.ClearTick()}
	var rec *diag.Recorder
	if !cfg.DisableDiag {
		// The flight recorder rides every run by default: it is asserted
		// to be a pure observer (TestLossFreeDiagRunByteIdentical), so
		// arming it cannot change a verdict — only explain one.
		rec = diag.NewRecorder(diag.Options{
			K:        64,
			SpoolDir: cfg.BundleDir,
			Registry: reg,
			Journal:  tr,
		})
	}
	var mon *health.Monitor
	var hist *history.Store
	if !cfg.DisableHealth {
		// Tick-driven windows one heartbeat wide: the fast span reacts
		// within two heartbeats, the slow span confirms over eight, and
		// hysteresis needs two clean windows — so an alert clears within
		// ~4 windows (4× HeartbeatEvery ticks) of heal, inside the same
		// bounded-staleness budget the recovery verdict uses. The windows
		// are the buckets of the history store's heartbeat-wide tier; its
		// 1-tick tier is what bundles and the -history-out dump replay.
		window := max(cfg.HeartbeatEvery, 1)
		mon = health.NewMonitor(health.Config{
			WindowTicks:  int(window),
			Windows:      64,
			FastWindows:  2,
			SlowWindows:  8,
			ResolveAfter: 2,
			Registry:     reg,
			Logger:       slog.New(slog.DiscardHandler),
			OnTransition: func(t health.Transition) {
				rep.Alerts = append(rep.Alerts, t)
				rec.OnTransition(t) // nil-safe; captures a bundle on page
			},
		})
		tiers := []history.Tier{{Every: 1, Len: 120}}
		if window > 1 {
			tiers = append(tiers, history.Tier{Every: window, Len: 64})
		}
		h, err := history.NewStore(history.Config{Registry: reg, Tiers: tiers,
			Detector: history.NewDetector(history.DetectorConfig{Registry: reg})})
		if err != nil {
			return Report{}, err
		}
		hist = h
	}
	// The system's node binds the monitor to the store and points the
	// recorder's bundles at both and at the latency table.
	sys, err := core.NewSystem(core.SystemConfig{
		Trace:                tr,
		Audit:                true,
		Telemetry:            reg,
		Health:               mon,
		Diag:                 rec,
		TelemetryHistory:     hist,
		WALDir:               cfg.WALDir,
		CheckpointEveryTicks: cfg.CheckpointEveryTicks,
		Freshness:            !cfg.DisableFreshness,
	})
	if err != nil {
		return Report{}, err
	}
	ids := streamIDs(cfg.Streams)
	handles := make([]*core.StreamHandle, len(ids))
	gens := make([]stream.Stream, len(ids))
	for i, id := range ids {
		// Seeds are laid out so stream 1 reproduces the classic
		// single-stream run exactly: link Seed+2i, feedback Seed+2i+1,
		// and a prime generator stride so sibling streams decorrelate.
		handles[i], err = sys.Attach(core.StreamConfig{
			ID:               id,
			Predictor:        core.KalmanConstantVelocity(0.01, 0.04),
			Delta:            cfg.Delta,
			HeartbeatEvery:   cfg.HeartbeatEvery,
			ResyncEvery:      cfg.ResyncEvery,
			WatchdogDeadline: cfg.WatchdogDeadline,
			LinkSeed:         cfg.Seed + 2*int64(i),
			FeedbackSeed:     cfg.Seed + 2*int64(i) + 1,
		})
		if err != nil {
			return Report{}, err
		}
		gens[i] = stream.NewSine(cfg.Seed+7919*int64(i), 50, 10, 300, 0, 0.2, cfg.Ticks)
	}

	// Per-stream mirrors of the watchdog's view, set after each tick's
	// Observes: they put the impaired streams' own series into the
	// bundles' history excerpts. (The streams_stale total the staleness
	// SLO burns against is published by the system itself.)
	streamStale := make([]*telemetry.Gauge, len(ids))
	for i, id := range ids {
		streamStale[i] = reg.Gauge("stream_stale", "stream", id)
	}

	if mon != nil {
		// The staleness objective has a zero budget — any window with a
		// stream stale pages. The δ objective burns against deltaBudget.
		wiring := []error{
			mon.GaugeSLO("staleness", "streams_stale", 0, health.Thresholds{}),
			mon.RatioSLO("delta-burn", "audit_delta_violations_total", "audit_ticks_total",
				deltaBudget, health.Thresholds{}),
		}
		if sys.Freshness() != nil {
			// The freshness objective: p99 gate→apply latency under the
			// bound. A healthy sim delivers within the tick (span ~0); a
			// delay burst pushes every span to its delay in virtual
			// milliseconds, burning the 1% budget at ~100× — the
			// degradation envelope the delay verdict asserts.
			wiring = append(wiring, mon.LatencySLO("freshness-p99", freshness.SeriesE2ELatency, 0.99,
				FreshnessP99Bound, health.Thresholds{}))
		}
		for _, err := range wiring {
			if err != nil {
				return Report{}, fmt.Errorf("chaos: health wiring: %w", err)
			}
		}
	}

	deadline := cfg.deadline()
	rep.RecoveryWindow = cfg.RecoveryWindow
	if rep.RecoveryWindow <= 0 {
		if deadline > 0 {
			rep.RecoveryWindow = 4 * deadline
		} else {
			rep.RecoveryWindow = 200
		}
	}

	cur := make([]linkSettings, len(ids))
	wasStale := make([]bool, len(ids))
	var preRestartResyncReqs int64
run:
	for tick := int64(0); tick < cfg.Ticks; tick++ {
		for _, f := range cfg.Schedule {
			if !f.Restart || f.From != tick {
				continue
			}
			// The kill lands at a flush boundary: sync, then drop the
			// server wholesale and recover it from the directory. The
			// sources, links, auditor, and clock ride through — they are
			// remote from the server's point of view.
			if rep.Restarts == 0 {
				for _, h := range handles {
					preRestartResyncReqs += h.Stats().ResyncRequests
				}
			}
			if err := sys.SyncWAL(); err != nil {
				return rep, err
			}
			stats, rerr := sys.RestartServer()
			if rerr != nil {
				return rep, fmt.Errorf("chaos: restart at tick %d: %w", tick, rerr)
			}
			rep.Restarts++
			rep.RestoredStreams += int64(stats.CheckpointStreams)
			rep.ReplayedRecords += int64(stats.RecordsReplayed)
		}
		for i, h := range handles {
			if ls := cfg.Schedule.at(tick, ids[i]); ls != cur[i] {
				cur[i] = ls
				link, fb := h.Link(), h.FeedbackLink()
				link.SetDropProb(ls.drop)
				link.SetDelayTicks(ls.delay)
				link.SetDuplicateProb(ls.dup)
				link.SetReorderProb(ls.reorder)
				link.SetDown(ls.down)
				if fb != nil {
					fb.SetDropProb(ls.fbDrop)
					fb.SetDown(ls.down)
				}
			}
		}
		if err := sys.Advance(); err != nil {
			return rep, err
		}
		for i, h := range handles {
			p, ok := gens[i].Next()
			if !ok {
				break run
			}
			if _, err := h.Observe(p.Value); err != nil {
				return rep, err
			}
			stale := h.Stale()
			if stale != wasStale[i] {
				if stale {
					rep.StaleEpisodes++
				}
				wasStale[i] = stale
			}
			if stale {
				streamStale[i].Set(1)
			} else {
				streamStale[i].Set(0)
			}
		}
		rep.Ticks++
	}

	stamped := sys.Freshness() != nil
	for _, h := range handles {
		st := h.Stats()
		rep.Messages += st.Sent
		rep.Heartbeats += st.Heartbeats
		rep.Resyncs += st.Resyncs
		rep.ResyncRequests += st.ResyncRequests
		rep.ForcedResyncs += st.ForcedResyncs
		ls := h.LinkStats()
		bytes := ls.Bytes
		if stamped {
			// Every uplink transmission (duplicates included) carried the
			// fixed 8-byte origin stamp. The summary counts protocol
			// payload, so the observability overhead is deducted — which
			// is what keeps a stamped run's classic artifact byte-identical
			// to the unstamped control's.
			bytes -= 8 * ls.Messages
		}
		rep.Bytes += bytes
		rep.Dropped += ls.Dropped
		rep.FeedbackDropped += h.FeedbackStats().Dropped
	}
	if len(ids) == 1 {
		rep.Audit = sys.Auditor().Stats(StreamID)
	} else {
		// Aggregate the auditor's verdict across streams; the recovery
		// check cares about the worst stream, so max the per-stream
		// last-violation ticks and ratios.
		rep.Audit = trace.AuditStats{StreamID: "aggregate", LastViolationTick: -1}
		for _, st := range sys.Auditor().All() {
			rep.Audit.Ticks += st.Ticks
			rep.Audit.Suppressed += st.Suppressed
			rep.Audit.Violations += st.Violations
			if st.MaxRatio > rep.Audit.MaxRatio {
				rep.Audit.MaxRatio = st.MaxRatio
			}
			if st.LastViolationTick > rep.Audit.LastViolationTick {
				rep.Audit.LastViolationTick = st.LastViolationTick
			}
		}
	}
	if rep.Restarts > 0 {
		rep.PostRestartResyncRequests = rep.ResyncRequests - preRestartResyncReqs
	}
	rep.LastViolation = rep.Audit.LastViolationTick
	rep.Recovered = rep.LastViolation < rep.ClearTick+rep.RecoveryWindow
	if mon != nil {
		for _, s := range mon.Snapshot().SLOs {
			if s.Severity != health.SevOK.String() {
				rep.NeverCleared = append(rep.NeverCleared, s.Name)
			}
		}
	}
	if rec != nil {
		if !rep.Recovered {
			// A failed verdict is an incident even if no SLO paged:
			// freeze the evidence unconditionally.
			rec.CaptureNow(fmt.Sprintf("chaos-verdict: not recovered (last violation tick %d)", rep.LastViolation))
		}
		rep.Bundles = rec.Bundles()
		rep.UnbundledPages = unbundledPages(rep.Alerts, rep.Bundles, rec.DedupeWindow())
	}
	if f := sys.Freshness(); f != nil {
		snap := f.SnapshotNow(nil)
		rep.FreshnessSpans = snap.E2E.Count
		rep.FreshnessP50 = snap.E2E.P50
		rep.FreshnessP99 = snap.E2E.P99
		for _, fault := range cfg.Schedule {
			if fault.DelayTicks > 0 && !fault.Restart {
				rep.DelayFaults++
			}
		}
		for _, t := range rep.Alerts {
			if t.SLO == "freshness-p99" && t.To != health.SevOK {
				rep.FreshnessDegraded = true
			}
		}
		rep.FreshnessCleared = true
		for _, name := range rep.NeverCleared {
			if name == "freshness-p99" {
				rep.FreshnessCleared = false
			}
		}
	}
	if hist != nil {
		d := hist.Dump(0, -1)
		rep.History = &d
	}
	return rep, nil
}

// unbundledPages counts page transitions not explained by any bundle:
// a page is covered when a captured bundle's firing alert is at most
// the dedupe window before it (the capture that opened its incident).
func unbundledPages(alerts []health.Transition, bundles []diag.Bundle, window int64) int {
	n := 0
	for _, t := range alerts {
		if t.To != health.SevPage {
			continue
		}
		covered := false
		for _, b := range bundles {
			if b.Alert != nil && t.Tick >= b.Alert.Tick && t.Tick-b.Alert.Tick < window {
				covered = true
				break
			}
		}
		if !covered {
			n++
		}
	}
	return n
}
