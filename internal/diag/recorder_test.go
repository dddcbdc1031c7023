package diag

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"kalmanstream/internal/health"
	"kalmanstream/internal/telemetry"
)

// pageAt builds a page transition at the given monitor tick.
func pageAt(slo string, tick int64) health.Transition {
	return health.Transition{
		SLO: slo, From: health.SevOK, To: health.SevPage,
		FromName: "ok", ToName: "page", Tick: tick,
	}
}

// One incident, one bundle: a page captures; further pages inside the
// dedupe window — same SLO or a sibling objective tripping on the same
// fault — join the incident instead of capturing again; a page past
// the window is a new incident.
func TestRecorderDedupeWindow(t *testing.T) {
	reg := telemetry.New()
	r := NewRecorder(Options{K: 8, DedupeTicks: 100, Registry: reg})
	r.ObserveStale("s-1")

	r.OnTransition(pageAt("staleness", 1000))
	r.OnTransition(pageAt("delta-burn", 1040)) // same incident
	r.OnTransition(pageAt("staleness", 1099))  // still inside
	if got := len(r.Bundles()); got != 1 {
		t.Fatalf("%d bundles after page storm, want 1", got)
	}
	r.OnTransition(pageAt("staleness", 1100)) // window is [1000,1100)
	if got := len(r.Bundles()); got != 2 {
		t.Fatalf("%d bundles after window expiry, want 2", got)
	}
	// Warn transitions never capture.
	r.OnTransition(health.Transition{SLO: "x", To: health.SevWarn, Tick: 5000})
	if got := len(r.Bundles()); got != 2 {
		t.Fatalf("warn transition captured a bundle (%d total)", got)
	}
	if v := reg.Counter("diag_bundles_captured_total").Value(); v != 2 {
		t.Errorf("diag_bundles_captured_total = %d, want 2", v)
	}
}

// Bundle contents: the captured document carries the alert, the
// offender tables, the log ring, and a monotone ID.
func TestBundleContents(t *testing.T) {
	reg := telemetry.New()
	ring := NewRingHandler(32, nil)
	logger := slog.New(ring)
	r := NewRecorder(Options{K: 8, Registry: reg, Logs: ring})

	r.ObserveCorrection("s-1", 40)
	r.ObserveCorrection("s-1", 40)
	r.ObserveViolation("s-2")
	r.ObserveStale("s-3")
	logger.Warn("stream stale", "stream", "s-3")

	tr := pageAt("staleness", 77)
	r.OnTransition(tr)
	bs := r.Bundles()
	if len(bs) != 1 {
		t.Fatalf("%d bundles, want 1", len(bs))
	}
	b := bs[0]
	if b.Alert == nil || b.Alert.SLO != "staleness" || b.Alert.Tick != 77 {
		t.Errorf("bundle alert = %+v, want staleness@77", b.Alert)
	}
	if b.Reason != "page:staleness" {
		t.Errorf("reason = %q", b.Reason)
	}
	if !strings.HasPrefix(b.ID, "bundle-000001-") {
		t.Errorf("first bundle ID = %q, want bundle-000001-*", b.ID)
	}
	if got := b.TopK[SketchCorrections]; len(got) != 1 || got[0].ID != "s-1" || got[0].Count != 2 {
		t.Errorf("corrections table = %+v", got)
	}
	if got := b.TopK[SketchBytes]; len(got) != 1 || got[0].Count != 80 {
		t.Errorf("bytes table = %+v", got)
	}
	if got := b.TopK[SketchViolations]; len(got) != 1 || got[0].ID != "s-2" {
		t.Errorf("violations table = %+v", got)
	}
	if got := b.TopK[SketchStale]; len(got) != 1 || got[0].ID != "s-3" {
		t.Errorf("stale table = %+v", got)
	}
	var sawLog bool
	for _, rec := range b.Logs {
		if rec.Msg == "stream stale" && strings.Contains(rec.Attrs, "stream=s-3") {
			sawLog = true
		}
	}
	if !sawLog {
		t.Errorf("log ring missing the stale warning: %+v", b.Logs)
	}
	if b.Goroutines <= 0 || !strings.Contains(b.GoroutineProfile, "goroutine profile") {
		t.Errorf("goroutine capture missing (n=%d)", b.Goroutines)
	}
	if b.Profile.After.When.IsZero() || b.Profile.AllocObjects < 0 {
		t.Errorf("profile delta not captured: %+v", b.Profile)
	}
}

// Disk spool: bundles persist as JSON files, the spool prunes to
// SpoolMax, and sequence numbers continue across recorder restarts.
func TestBundleSpool(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	r := NewRecorder(Options{K: 4, SpoolDir: dir, SpoolMax: 3, Registry: reg})
	for i := 0; i < 5; i++ {
		r.CaptureNow("test")
	}
	files := spoolFiles(dir)
	if len(files) != 3 {
		t.Fatalf("spool holds %d files, want 3 (pruned)", len(files))
	}
	if files[0] != "bundle-000003-test.json" || files[2] != "bundle-000005-test.json" {
		t.Errorf("spool kept %v, want bundles 3..5", files)
	}
	var b Bundle
	data, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("spooled bundle is not valid JSON: %v", err)
	}
	if b.Reason != "test" {
		t.Errorf("round-tripped reason = %q", b.Reason)
	}

	// A fresh recorder over the same spool continues the sequence.
	r2 := NewRecorder(Options{K: 4, SpoolDir: dir, SpoolMax: 3, Registry: telemetry.New()})
	nb := r2.CaptureNow("restart")
	if nb.ID != "bundle-000006-restart" {
		t.Errorf("post-restart ID = %q, want bundle-000006-restart", nb.ID)
	}
}

// A page whose burn rates are +Inf (zero-budget SLO) must still spool:
// raw infinities are not JSON-encodable and are clamped to the 1e9
// sentinel at capture. This pins the regression where the marshal
// error was silently swallowed and the spool stayed empty.
func TestInfiniteBurnAlertStillSpools(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	r := NewRecorder(Options{K: 4, SpoolDir: dir, Registry: reg})
	tr := pageAt("staleness", 42)
	tr.BurnFast = math.Inf(1)
	tr.BurnSlow = math.Inf(1)
	r.OnTransition(tr)

	files := spoolFiles(dir)
	if len(files) != 1 {
		t.Fatalf("spool holds %d files, want 1 (spool errors: %d)",
			len(files), reg.Counter("diag_spool_errors_total").Value())
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("spooled bundle is not valid JSON: %v", err)
	}
	if b.Alert == nil || b.Alert.BurnFast != 1e9 {
		t.Errorf("alert burn not clamped: %+v", b.Alert)
	}
	if v := reg.Counter("diag_spool_errors_total").Value(); v != 0 {
		t.Errorf("diag_spool_errors_total = %d, want 0", v)
	}
}

// An unwritable spool directory must not fail the capture — the memory
// ring keeps the bundle — but must count the write failure.
func TestSpoolErrorCounted(t *testing.T) {
	reg := telemetry.New()
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(Options{K: 4, SpoolDir: file, Registry: reg})
	r.CaptureNow("doomed")
	if len(r.Bundles()) != 1 {
		t.Fatal("capture failed alongside the spool write")
	}
	if v := reg.Counter("diag_spool_errors_total").Value(); v != 1 {
		t.Errorf("diag_spool_errors_total = %d, want 1", v)
	}
}

// HTTP surface: /debug/bundle lists and fetches (memory and disk),
// /debug/top serves the offender tables.
func TestHandlers(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	r := NewRecorder(Options{K: 8, SpoolDir: dir, Registry: reg})
	r.ObserveCorrection("s-9", 10)
	r.CaptureNow("manual")

	// List.
	req := httptest.NewRequest("GET", "/debug/bundle", nil)
	w := httptest.NewRecorder()
	BundleHandler(r).ServeHTTP(w, req)
	var list []BundleInfo
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(list) != 1 || !strings.HasPrefix(list[0].ID, "bundle-000001-") {
		t.Fatalf("list = %+v", list)
	}

	// Fetch by ID.
	req = httptest.NewRequest("GET", "/debug/bundle?id="+list[0].ID, nil)
	w = httptest.NewRecorder()
	BundleHandler(r).ServeHTTP(w, req)
	var b Bundle
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("fetch decode: %v", err)
	}
	if b.Reason != "manual" {
		t.Errorf("fetched reason = %q", b.Reason)
	}

	// Unknown ID and traversal attempts 404.
	for _, id := range []string{"nope", "../etc/passwd"} {
		req = httptest.NewRequest("GET", "/debug/bundle?id="+id, nil)
		w = httptest.NewRecorder()
		BundleHandler(r).ServeHTTP(w, req)
		if w.Code != 404 {
			t.Errorf("fetch %q = %d, want 404", id, w.Code)
		}
	}

	// Offender tables.
	req = httptest.NewRequest("GET", "/debug/top?n=5", nil)
	w = httptest.NewRecorder()
	TopHandler(r).ServeHTTP(w, req)
	var top TopPayload
	if err := json.Unmarshal(w.Body.Bytes(), &top); err != nil {
		t.Fatalf("top decode: %v", err)
	}
	if top.K != 8 || len(top.Sketches[SketchCorrections]) != 1 {
		t.Errorf("top payload = %+v", top)
	}

	// Profile delta endpoint (seconds=0: immediate two-sample diff).
	req = httptest.NewRequest("GET", "/debug/pprof/delta?seconds=0", nil)
	w = httptest.NewRecorder()
	DeltaHandler().ServeHTTP(w, req)
	var pd ProfileDelta
	if err := json.Unmarshal(w.Body.Bytes(), &pd); err != nil {
		t.Fatalf("delta decode: %v", err)
	}
	if pd.Before.HeapAlloc == 0 || pd.After.When.IsZero() {
		t.Errorf("delta payload = %+v", pd)
	}
}

// Ring handler: bounded, oldest-first, attrs flattened, tee preserved.
func TestRingHandler(t *testing.T) {
	ring := NewRingHandler(16, nil)
	logger := slog.New(ring).With("stream", "s-1")
	for i := 0; i < 20; i++ {
		logger.Info("tick", "n", i)
	}
	recs := ring.Records()
	if len(recs) != 16 {
		t.Fatalf("ring holds %d, want 16", len(recs))
	}
	if !strings.Contains(recs[0].Attrs, "n=4") || !strings.Contains(recs[15].Attrs, "n=19") {
		t.Errorf("ring order wrong: first=%q last=%q", recs[0].Attrs, recs[15].Attrs)
	}
	if !strings.Contains(recs[0].Attrs, "stream=s-1") {
		t.Errorf("WithAttrs prefix lost: %q", recs[0].Attrs)
	}
	if recs[0].Level != "INFO" || recs[0].Time.IsZero() {
		t.Errorf("record metadata: %+v", recs[0])
	}

	// Debug records stay out when no tee wants them; a tee that accepts
	// them brings them into the ring too.
	if ring.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug enabled without a tee")
	}
	tee := NewRingHandler(16, slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	if !tee.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("info must always reach the ring")
	}
}

// Contention accounting: a held sketch lock drops the observation and
// counts it instead of blocking the hot path.
func TestTryObserveDropsUnderContention(t *testing.T) {
	reg := telemetry.New()
	r := NewRecorder(Options{K: 4, Registry: reg})
	r.violations.mu.Lock()
	r.ObserveViolation("s-1")
	r.violations.mu.Unlock()
	if r.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", r.Dropped())
	}
	if v := reg.Counter("diag_events_dropped_total").Value(); v != 1 {
		t.Errorf("diag_events_dropped_total = %d, want 1", v)
	}
	// The sketch did not record the dropped event.
	if _, ok := r.violations.Count("s-1"); ok {
		t.Error("dropped observation leaked into the sketch")
	}
}

// A zero-value-ish recorder works end to end with defaults.
func TestRecorderDefaults(t *testing.T) {
	r := NewRecorder(Options{Registry: telemetry.New()})
	if r.violations.K() != 128 || r.opts.SpoolMax != 16 || r.opts.DedupeTicks != 500 {
		t.Errorf("defaults: k=%d spool=%d dedupe=%d", r.violations.K(), r.opts.SpoolMax, r.opts.DedupeTicks)
	}
	if d := r.DedupeWindow(); d != 500 {
		t.Errorf("DedupeWindow = %d", d)
	}
	start := time.Now()
	b := r.CaptureNow("x")
	if b.CapturedAt.Before(start.Add(-time.Second)) {
		t.Errorf("capture time %v before test start", b.CapturedAt)
	}
}

// population is a stand-in for the server's stream records: n streams
// whose counts collide often (ties must rank by ID) and are sometimes
// zero (a stream that applied nothing has no row).
func population(n int) (walk func(visit func(id string, corrections, bytes int64)), rows []Item) {
	rows = make([]Item, n)
	for i := range rows {
		rows[i] = Item{ID: fmt.Sprintf("s%05d", i), Count: int64(i*7919%n) % 50}
	}
	return func(visit func(id string, corrections, bytes int64)) {
		for _, r := range rows {
			visit(r.ID, r.Count, 29*r.Count)
		}
	}, rows
}

// With a reader attached the corrections and bytes tables are the exact
// top rows of the records — whatever n is asked for, and whatever was
// pushed into the sketches that served before the reader was attached.
func TestTopSelectsFromStreamRecords(t *testing.T) {
	const n = 10_000
	r := NewRecorder(Options{K: 128, Registry: telemetry.New()})
	r.ObserveCorrection("ghost", 1<<40)
	walk, rows := population(n)
	r.AttachStreams(walk)

	want := make([]Item, 0, n)
	for _, row := range rows {
		if row.Count > 0 {
			want = append(want, row)
		}
	}
	slices.SortFunc(want, rankItems)
	for _, ask := range []int{1, 10, 127, 128, 129, 1000, 2 * n, 0, -1} {
		rowsWanted := ask
		if ask <= 0 {
			rowsWanted = 128 // K: "all" stays bounded
		}
		rowsWanted = min(rowsWanted, len(want))
		top := r.Top(ask)
		if got := top[SketchCorrections]; !slices.Equal(got, want[:rowsWanted]) {
			t.Errorf("Top(%d) corrections: %d rows %+v..., want %d rows %+v...", ask, len(got), got[:min(3, len(got))], rowsWanted, want[:3])
		}
		got := top[SketchBytes]
		if len(got) != rowsWanted {
			t.Fatalf("Top(%d) bytes: %d rows, want %d", ask, len(got), rowsWanted)
		}
		for i, row := range got {
			if row != (Item{ID: want[i].ID, Count: 29 * want[i].Count}) {
				t.Fatalf("Top(%d) bytes row %d = %+v, want 29 × %+v", ask, i, row, want[i])
			}
		}
	}

	// A population with nothing applied serves empty tables, as [] in JSON.
	r.AttachStreams(func(visit func(string, int64, int64)) { visit("idle", 0, 0) })
	if got := r.Top(5)[SketchCorrections]; got == nil || len(got) != 0 {
		t.Errorf("idle population: corrections table %#v, want empty and non-nil", got)
	}
}

// Top's memory follows the rows asked for, not the population walked.
func TestTopAllocatesByRowsNotPopulation(t *testing.T) {
	const rows = 16
	perCall := func(n int) (allocs float64, bytes uint64) {
		r := NewRecorder(Options{Registry: telemetry.New()})
		walk, _ := population(n)
		r.AttachStreams(walk)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { r.Top(rows) })
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	smallAllocs, _ := perCall(100)
	allocs, bytes := perCall(10_000)
	if allocs > smallAllocs {
		t.Errorf("Top(%d) allocates %.0f times over 10,000 records and %.0f over 100", rows, allocs, smallAllocs)
	}
	// Two buffers of 2·rows items and a four-entry map; one Item per
	// record would be 400 KB.
	if bytes > 8<<10 {
		t.Errorf("Top(%d) over 10,000 records allocates %d bytes a call", rows, bytes)
	}
}
