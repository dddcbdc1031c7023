// The flight recorder: always-on, fixed-memory attribution plus
// synchronous incident capture. Attribution is pulled, never pushed:
// every offender table is a count some record already keeps — the
// stream record's corrections, encoded bytes and stale episodes
// (AttachStreams), the auditor's per-stream δ violations
// (AttachAuditor) — and Top walks those records when somebody asks and
// keeps the top rows. Neither the apply path, nor the watchdog, nor the
// auditor feeds the recorder anything, nothing can be dropped, and every
// table is exact at any population. The cold
// half runs only when an SLO pages (or a chaos verdict fails): it freezes
// everything a responder would ask for — the firing alert, the health
// window table, the trace-journal tail, the top-k offender tables, a
// runtime profile delta, the recent log ring — into one self-contained
// JSON bundle, spooled to disk and served over /debug/bundle.
//
// H2O's autonomic argument (see PAPERS.md) is the motivation: a
// control loop can only shed or throttle what it can attribute. The
// tables give attribution at millions-of-streams scale; the bundles
// give the human (or the future controller) the moment-of-failure
// state without replaying anything.

package diag

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// Table names used as keys in Bundle.TopK and /debug/top.
const (
	SketchCorrections = "corrections"
	SketchBytes       = "bytes"
	SketchViolations  = "violations"
	SketchStale       = "stale"
)

// TableOrder lists the tables in the order every surface renders them.
var TableOrder = [...]string{SketchCorrections, SketchBytes, SketchViolations, SketchStale}

// What one bundle embeds.
const (
	// traceTail bounds the journal tail, in events.
	traceTail = 256
	// historyTail bounds the trailing finest-tier history buckets per
	// implicated series (the store itself attaches via AttachHistory).
	historyTail = 120
	// historyStreams is how many top offender streams (per sketch)
	// contribute their labeled series to the embedded history.
	historyStreams = 4
)

// Options configures a Recorder. The zero value is usable: 128-row
// tables, memory-only spool of 16 bundles, 500-tick dedupe window.
type Options struct {
	// K is the most rows a table returns when asked for all of them, as a
	// bundle asks (default 128).
	K int
	// SpoolDir, when non-empty, persists each bundle as a JSON file
	// and prunes the directory to SpoolMax files.
	SpoolDir string
	// SpoolMax bounds both the in-memory bundle ring and the on-disk
	// spool (default 16).
	SpoolMax int
	// DedupeTicks is the incident window: once a bundle is captured,
	// further page transitions within this many monitor ticks join the
	// same incident and do not capture again (default 500).
	DedupeTicks int64
	// Registry receives diag_bundles_captured_total and
	// diag_events_dropped_total (nil means telemetry.Default).
	Registry *telemetry.Registry
	// Journal, when non-nil, contributes the trace tail.
	Journal *trace.Journal
	// Logs, when non-nil, contributes recent log records.
	Logs *RingHandler
}

// Recorder is the flight recorder. Its methods are safe for concurrent
// use; capture is synchronous but runs only on page transitions.
type Recorder struct {
	opts        Options
	corrections *TopK
	bytes       *TopK

	telBundles   *telemetry.Counter
	telDropped   *telemetry.Counter
	telSpoolErrs *telemetry.Counter
	dropped      atomic.Int64

	healthFn func() health.Snapshot
	history  *history.Store
	freshFn  func() freshness.Snapshot
	// streams and audit, when attached, are the walks the tables are
	// selected from: the server's stream records (corrections, bytes,
	// stale) and the auditor's per-stream counts (violations).
	streams func(visit func(id string, corrections, bytes, staleEpisodes int64))
	audit   func(visit func(id string, violations int64))

	mu          sync.Mutex
	lastCapture int64 // monitor tick of the last page capture, -1 = never
	bundles     []Bundle
	seq         int64
	baseline    MemSnapshot
}

// NewRecorder builds a recorder. If opts.SpoolDir is set it is created
// on first capture; existing bundle files count toward SpoolMax.
func NewRecorder(opts Options) *Recorder {
	if opts.K <= 0 {
		opts.K = 128
	}
	if opts.SpoolMax <= 0 {
		opts.SpoolMax = 16
	}
	if opts.DedupeTicks <= 0 {
		opts.DedupeTicks = 500
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default
	}
	reg.Help("diag_bundles_captured_total", "incident bundles captured by the flight recorder")
	reg.Help("diag_events_dropped_total", "ObserveCorrection events dropped because a sketch was contended")
	reg.Help("diag_spool_errors_total", "incident bundles that could not be written to the disk spool")
	r := &Recorder{
		opts:         opts,
		corrections:  NewTopK(opts.K),
		bytes:        NewTopK(opts.K),
		telBundles:   reg.Counter("diag_bundles_captured_total"),
		telDropped:   reg.Counter("diag_events_dropped_total"),
		telSpoolErrs: reg.Counter("diag_spool_errors_total"),
		lastCapture:  -1,
		baseline:     ReadMemSnapshot(),
	}
	r.seq = r.scanSpool()
	return r
}

// AttachHealth points bundle capture at a monitor's Snapshot. The
// monitor invokes OnTransition hooks outside its own lock, so capture
// may call back into Snapshot safely.
func (r *Recorder) AttachHealth(m *health.Monitor) {
	r.healthFn = m.Snapshot
}

// AttachFreshness points bundle capture at a freshness snapshot source
// (a wire server's or core system's latency recorder): every bundle
// then embeds the latency table — e2e and staleness quantiles plus
// resident exemplars — and, when a journal is attached, the full trace
// chain of the worst exemplar, so a latency page arrives with its
// slowest correction already resolved.
func (r *Recorder) AttachFreshness(fn func() freshness.Snapshot) {
	r.freshFn = fn
}

// AttachHistory points bundle capture at a telemetry history store:
// every bundle embeds the trailing historyTail finest-tier buckets of
// the implicated series — the paging SLO's series plus the top
// offender streams' labeled series — so the bundle shows the ramp
// before the cliff, not just the cliff.
func (r *Recorder) AttachHistory(st *history.Store) {
	r.history = st
}

// AttachStreams points the corrections, bytes and stale tables at the
// stream records themselves: walk visits every stream with its applied
// correction count, encoded bytes and stale episodes
// (server.Server.WalkCounts), and Top selects its rows from one such walk.
// Every row is then exact (Err 0) however many streams there are.
func (r *Recorder) AttachStreams(walk func(visit func(id string, corrections, bytes, staleEpisodes int64))) {
	r.streams = walk
}

// AttachAuditor points the violations table at the auditor's per-stream
// δ-violation counts (trace.Auditor.WalkViolations), exact as the stream
// tables are.
func (r *Recorder) AttachAuditor(walk func(visit func(id string, violations int64))) {
	r.audit = walk
}

// ObserveCorrection attributes one applied correction of n encoded
// bytes to stream id, into two sketches that Top serves only while no
// reader is attached with AttachStreams — the one push left, and nothing
// but the benchmark makes it. It and its two sketches are kept because
// the deployed-path benchmark compiles against it (bench/probes.go,
// diag.observe_ns) and a change that claims a gain may not edit the
// benchmark; it goes when a benchmark change drops that probe.
func (r *Recorder) ObserveCorrection(id string, n int) {
	if r == nil {
		return
	}
	if !r.corrections.TryObserve(id, 1) {
		r.drop()
	}
	if !r.bytes.TryObserve(id, int64(n)) {
		r.drop()
	}
}

func (r *Recorder) drop() {
	r.dropped.Add(1)
	r.telDropped.Inc()
}

// Dropped returns the number of ObserveCorrection events dropped under
// contention.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Top returns the top n rows of every table, keyed by table name, count
// descending, then ID; n <= 0 means K rows, so a bundle stays bounded
// whatever the population. It costs one walk over the stream records and
// one over the auditor's, and O(n) memory; streams with a zero count are
// left out, and a table with nothing attached to read is empty — but for
// corrections and bytes, which then serve the ObserveCorrection sketches.
func (r *Recorder) Top(n int) map[string][]Item {
	if n <= 0 {
		n = r.opts.K
	}
	corrections, bytes, stale, violations := selection{n: n}, selection{n: n}, selection{n: n}, selection{n: n}
	if r.streams != nil {
		r.streams(func(id string, c, b, s int64) {
			corrections.offer(id, c)
			bytes.offer(id, b)
			stale.offer(id, s)
		})
	}
	if r.audit != nil {
		r.audit(violations.offer)
	}
	out := map[string][]Item{
		SketchCorrections: corrections.rows(),
		SketchBytes:       bytes.rows(),
		SketchViolations:  violations.rows(),
		SketchStale:       stale.rows(),
	}
	if r.streams == nil {
		out[SketchCorrections] = r.corrections.Top(n)
		out[SketchBytes] = r.bytes.Top(n)
	}
	return out
}

// selection keeps the n best of the items offered to it — count
// descending, then ID — in memory proportional to n (or to the number
// offered, if smaller): offers collect in a buffer that is sorted and
// cut back to n whenever it reaches 2n, and from then on an item no
// better than the n-th kept is refused without being stored.
type selection struct {
	n     int
	buf   []Item
	floor Item // the n-th best as of the last cut; zero, so below any offer, before it
}

func rankItems(a, b Item) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), strings.Compare(a.ID, b.ID))
}

func (s *selection) offer(id string, count int64) {
	it := Item{ID: id, Count: count}
	if count <= 0 || rankItems(it, s.floor) >= 0 {
		return
	}
	s.buf = append(s.buf, it)
	if len(s.buf) == 2*s.n {
		s.cut()
		s.floor = s.buf[s.n-1]
	}
}

func (s *selection) cut() {
	slices.SortFunc(s.buf, rankItems)
	if len(s.buf) > s.n {
		s.buf = s.buf[:s.n]
	}
}

func (s *selection) rows() []Item {
	s.cut()
	if s.buf == nil {
		return []Item{} // an empty table serves as [] not null, like a sketch's
	}
	return s.buf
}

// OnTransition is the health.Config.OnTransition hook: every
// transition TO page severity captures an incident bundle, unless a
// bundle was already captured within the dedupe window (a page storm —
// several objectives tripping on one fault — is one incident, one
// bundle).
func (r *Recorder) OnTransition(t health.Transition) {
	if r == nil || t.To != health.SevPage {
		return
	}
	r.mu.Lock()
	if r.lastCapture >= 0 && t.Tick-r.lastCapture < r.opts.DedupeTicks {
		r.mu.Unlock()
		return
	}
	r.lastCapture = t.Tick
	r.mu.Unlock()
	r.capture("page:"+t.SLO, &t)
}

// CaptureNow captures a bundle unconditionally (chaos verdict
// failures, operator request). It does not consume the dedupe window.
func (r *Recorder) CaptureNow(reason string) Bundle {
	return r.capture(reason, nil)
}

// DedupeWindow returns the incident dedupe window in monitor ticks:
// page transitions within this many ticks of a capture join that
// bundle's incident instead of capturing again.
func (r *Recorder) DedupeWindow() int64 { return r.opts.DedupeTicks }

// Bundles returns the in-memory spool oldest first.
func (r *Recorder) Bundles() []Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Bundle, len(r.bundles))
	copy(out, r.bundles)
	return out
}
