// Incident bundles: one self-contained JSON document per incident,
// captured synchronously at the moment an SLO pages so the evidence is
// frozen before the system moves on. The spool is bounded both in
// memory and on disk — a flapping system overwrites its oldest
// incidents instead of filling the volume.

package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/trace"
)

// Bundle is one captured incident: everything a responder would ask
// for, in one JSON document.
type Bundle struct {
	// ID is the spool name, e.g. "bundle-000003-page-streams-stale".
	ID string `json:"id"`
	// CapturedAt is the wall-clock capture time.
	CapturedAt time.Time `json:"captured_at"`
	// Reason is "page:<slo>" or a free-form cause ("chaos-verdict: ...").
	Reason string `json:"reason"`
	// Alert is the transition that fired the capture (nil for
	// CaptureNow bundles).
	Alert *health.Transition `json:"alert,omitempty"`
	// Health is the monitor snapshot at capture time: burn rates,
	// window tables, the recent transition log.
	Health *health.Snapshot `json:"health,omitempty"`
	// TopK holds the offender tables keyed by table name: corrections
	// and bytes, exact and at most K rows when read from the stream
	// records; violations and stale, sketches.
	TopK map[string][]Item `json:"topk"`
	// History is the trailing telemetry history of the implicated
	// series — the alert's SLO series plus the top offender streams'
	// labeled series — when a history store is attached.
	History *history.Excerpt `json:"history,omitempty"`
	// Latency is the freshness snapshot at capture time: e2e and
	// staleness quantiles with their resident exemplars, plus the
	// per-connection clock-skew table (when a recorder is attached).
	Latency *freshness.Snapshot `json:"latency,omitempty"`
	// LatencyTraces holds the resolved trace-journal chain of each
	// latency histogram's worst resident exemplar, keyed by series
	// ("e2e_latency", "query_staleness") — the slowest correction the
	// responder would chase first, pre-chased.
	LatencyTraces map[string][]trace.Event `json:"latency_traces,omitempty"`
	// TraceTail is the most recent slice of the trace journal.
	TraceTail []trace.Event `json:"trace_tail,omitempty"`
	// Logs is the recent log ring, oldest first.
	Logs []LogRecord `json:"logs,omitempty"`
	// Profile is the runtime delta since the previous capture (or
	// since the recorder was built, for the first bundle).
	Profile ProfileDelta `json:"profile"`
	// Goroutines is the goroutine count at capture time.
	Goroutines int `json:"goroutines"`
	// GoroutineProfile is a truncated text rendering of the goroutine
	// profile, grouped by identical stacks.
	GoroutineProfile string `json:"goroutine_profile,omitempty"`
}

// goroutineProfileLimit bounds the embedded text profile so a bundle
// stays a readable document, not a core dump.
const goroutineProfileLimit = 16 << 10

// capture freezes the current state into a bundle, appends it to the
// bounded in-memory spool, and persists it when a spool directory is
// configured. Errors writing to disk are recorded in the bundle ID's
// memory copy only — capture itself never fails.
func (r *Recorder) capture(reason string, alert *health.Transition) Bundle {
	now := ReadMemSnapshot()

	b := Bundle{
		CapturedAt: time.Now(),
		Reason:     reason,
		TopK:       r.Top(0),
		Goroutines: now.Goroutines,
	}
	if alert != nil {
		// The live transition carries raw +Inf burn rates (a zero-budget
		// SLO burns infinitely); encoding/json rejects infinities, so
		// clamp to the same 1e9 sentinel /debug/health uses.
		a := *alert
		a.BurnFast = clampBurn(a.BurnFast)
		a.BurnSlow = clampBurn(a.BurnSlow)
		b.Alert = &a
	}
	if r.healthFn != nil {
		snap := r.healthFn()
		b.Health = &snap
	}
	if r.history != nil {
		ex := r.history.ExcerptFor(r.implicatedSeries(b.Alert, b.Health), r.offenderStreams(b.TopK), historyTail)
		b.History = &ex
	}
	if r.freshFn != nil {
		snap := r.freshFn()
		b.Latency = &snap
		if j := r.opts.Journal; j != nil {
			b.LatencyTraces = worstExemplarTraces(j, &snap)
		}
	}
	if j := r.opts.Journal; j != nil {
		tail := j.Snapshot()
		if len(tail) > traceTail {
			tail = tail[len(tail)-traceTail:]
		}
		b.TraceTail = tail
	}
	if r.opts.Logs != nil {
		b.Logs = r.opts.Logs.Records()
	}
	var prof bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&prof, 1)
	}
	if prof.Len() > goroutineProfileLimit {
		prof.Truncate(goroutineProfileLimit)
		prof.WriteString("\n... truncated ...\n")
	}
	b.GoroutineProfile = prof.String()

	r.mu.Lock()
	b.Profile = DeltaSince(r.baseline, now)
	r.baseline = now
	r.seq++
	b.ID = fmt.Sprintf("bundle-%06d-%s", r.seq, sanitize(reason))
	r.bundles = append(r.bundles, b)
	if len(r.bundles) > r.opts.SpoolMax {
		r.bundles = r.bundles[len(r.bundles)-r.opts.SpoolMax:]
	}
	r.mu.Unlock()

	r.telBundles.Inc()
	r.persist(b)
	return b
}

// implicatedSeries names the series whose history belongs in the
// bundle: the paging SLO's series when an alert fired, or —
// for unconditional captures — every series any declared SLO watches.
func (r *Recorder) implicatedSeries(alert *health.Transition, snap *health.Snapshot) []string {
	if snap == nil {
		return nil
	}
	var names []string
	for _, s := range snap.SLOs {
		if alert != nil && s.Name != alert.SLO {
			continue
		}
		names = append(names, s.Series...)
	}
	return names
}

// offenderStreams lists the top historyStreams stream IDs of every
// attribution table in the bundle — the streams most likely implicated
// in whatever paged.
func (r *Recorder) offenderStreams(tables map[string][]Item) []string {
	var ids []string
	seen := make(map[string]bool)
	for _, name := range TableOrder {
		rows := tables[name]
		for _, it := range rows[:min(len(rows), historyStreams)] {
			if !seen[it.ID] {
				seen[it.ID] = true
				ids = append(ids, it.ID)
			}
		}
	}
	return ids
}

// worstExemplarTraces resolves the highest-bucket resolvable exemplar
// of each latency histogram against the trace journal. Exemplar rows
// are bucket-ordered, so scanning from the end finds the slowest
// retained observation whose trace is still resident.
func worstExemplarTraces(j *trace.Journal, s *freshness.Snapshot) map[string][]trace.Event {
	out := make(map[string][]trace.Event, 2)
	add := func(key string, rows []freshness.ExemplarRow) {
		for i := len(rows) - 1; i >= 0; i-- {
			if rows[i].TraceID == 0 {
				continue
			}
			if chain := j.TraceEvents(rows[i].TraceID); len(chain) > 0 {
				out[key] = chain
				return
			}
		}
	}
	add("e2e_latency", s.E2E.Exemplars)
	add("query_staleness", s.Staleness.Exemplars)
	if len(out) == 0 {
		return nil
	}
	return out
}

// clampBurn maps +Inf (and anything past it) to the finite 1e9
// sentinel health's own JSON surfaces use — far past every threshold,
// and representable.
func clampBurn(v float64) float64 {
	if math.IsInf(v, 1) || v > 1e9 {
		return 1e9
	}
	return v
}

// sanitize maps a reason to a filesystem- and URL-safe slug.
func sanitize(reason string) string {
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteByte('-')
		}
		if b.Len() >= 40 {
			break
		}
	}
	return strings.Trim(b.String(), "-")
}

// persist writes the bundle to the spool directory and prunes it to
// SpoolMax files (oldest first — IDs sort chronologically by
// construction). Disk errors never fail the capture — the memory spool
// is the source of truth — but they are counted in
// diag_spool_errors_total so a silently unwritable spool is visible.
func (r *Recorder) persist(b Bundle) {
	dir := r.opts.SpoolDir
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.telSpoolErrs.Inc()
		return
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		r.telSpoolErrs.Inc()
		return
	}
	if err := os.WriteFile(filepath.Join(dir, b.ID+".json"), data, 0o644); err != nil {
		r.telSpoolErrs.Inc()
		return
	}
	names := spoolFiles(dir)
	for len(names) > r.opts.SpoolMax {
		os.Remove(filepath.Join(dir, names[0]))
		names = names[1:]
	}
}

// spoolFiles lists bundle files in the spool sorted oldest first.
func spoolFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// scanSpool returns the highest sequence number already present in the
// spool directory, so restarts keep IDs monotone.
func (r *Recorder) scanSpool() int64 {
	if r.opts.SpoolDir == "" {
		return 0
	}
	var max int64
	for _, name := range spoolFiles(r.opts.SpoolDir) {
		var seq int64
		if _, err := fmt.Sscanf(name, "bundle-%d", &seq); err == nil && seq > max {
			max = seq
		}
	}
	return max
}
