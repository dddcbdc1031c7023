package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
)

// cmdTop renders a live plain-ANSI dashboard over a running kfserver's
// /debug/health endpoint: per-SLO burn rates with a per-window
// bad-ratio sparkline, per-stream send/suppress rates (derived by
// diffing cumulative counters between polls), stale flags, and the
// recent alert log.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	httpAddr := fs.String("http", "localhost:9654", "kfserver HTTP address (the -http flag it was started with)")
	interval := fs.Duration("interval", time.Second, "poll and redraw interval")
	count := fs.Int("n", 0, "number of refreshes before exiting (0 = run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := fmt.Sprintf("http://%s/debug/health", *httpAddr)
	topURL := fmt.Sprintf("http://%s/debug/top?n=8", *httpAddr)
	histURL := fmt.Sprintf("http://%s/debug/history?dump=1&tier=0&n=30", *httpAddr)
	varsURL := fmt.Sprintf("http://%s/debug/vars", *httpAddr)
	latURL := fmt.Sprintf("http://%s/debug/latency", *httpAddr)
	client := &http.Client{Timeout: *interval}

	var prev *health.DebugPayload
	var prevAt time.Time
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		cur, err := fetchHealth(client, url)
		if err != nil {
			return fmt.Errorf("top: %w (is kfserver running with -http %s?)", err, *httpAddr)
		}
		// The offender tables are best-effort: an older server without
		// the flight recorder simply has no pane.
		offenders := fetchOffenders(client, topURL)
		now := time.Now()
		elapsed := 0.0
		if prev != nil {
			elapsed = now.Sub(prevAt).Seconds()
		}
		// The history and term-cache panes are equally best-effort:
		// servers without /debug/history or the coordinator metrics
		// simply render without them.
		hist := fetchHistory(client, histURL)
		vars := fetchVars(client, varsURL)
		lat := fetchLatency(client, latURL)
		// Clear screen, home cursor: plain ANSI, no TUI dependency.
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Print(renderTop(prev, cur, elapsed))
		fmt.Print(renderTermCache(vars))
		if lat != nil {
			fmt.Print(renderLatency(lat))
		}
		if offenders != nil {
			fmt.Print(renderOffenders(offenders))
		}
		if hist != nil {
			fmt.Print(renderHistory(hist))
		}
		prev, prevAt = cur, now
	}
	return nil
}

// fetchOffenders polls the flight recorder's /debug/top tables. Any
// failure (404 on an older server, timeout) returns nil: the pane is
// optional.
func fetchOffenders(client *http.Client, url string) *diag.TopPayload {
	resp, err := client.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var payload diag.TopPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil
	}
	return &payload
}

// renderOffenders formats the flight recorder's attribution tables as
// one compact pane. k and the drop count qualify the two sketched
// tables only.
func renderOffenders(top *diag.TopPayload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\ntop offenders (sketch k=%d", top.K)
	if top.Dropped > 0 {
		fmt.Fprintf(&b, ", %d events dropped", top.Dropped)
	}
	b.WriteString("):\n")
	if !writeOffenderTables(&b, top.Sketches) {
		b.WriteString("  (no events attributed yet)\n")
	}
	return b.String()
}

// writeOffenderTables writes one line per non-empty table — the worst
// streams with their counts — and reports whether it wrote any. The
// corrections and bytes tables a server reads from its stream records are
// labelled exact; a sketched row carries its ± error bound once eviction
// has begun (as do corrections and bytes rows from a recorder with no
// records to read, which are then not labelled).
func writeOffenderTables(b *strings.Builder, tables map[string][]diag.Item) bool {
	any := false
	for _, name := range diag.TableOrder {
		items := tables[name]
		if len(items) == 0 {
			continue
		}
		any = true
		label := name
		if (name == diag.SketchCorrections || name == diag.SketchBytes) &&
			!slices.ContainsFunc(items, func(it diag.Item) bool { return it.Err > 0 }) {
			label += " (exact)"
		}
		fmt.Fprintf(b, "  %-20s", label)
		for i, it := range items {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%s=%d", it.ID, it.Count)
			if it.Err > 0 {
				fmt.Fprintf(b, "±%d", it.Err)
			}
		}
		b.WriteString("\n")
	}
	return any
}

// fetchLatency polls the freshness snapshot at /debug/latency. Any
// failure (older server, timeout) returns nil: the pane is optional.
func fetchLatency(client *http.Client, url string) *freshness.Snapshot {
	resp, err := client.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap freshness.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return &snap
}

// renderLatency formats the freshness pane: e2e and staleness quantiles
// with their span counts, the worst resident exemplar (the one-hop
// pivot into /debug/trace), and per-connection clock-skew estimates.
// Nothing renders until a stamped source has shipped at least one span.
func renderLatency(s *freshness.Snapshot) string {
	if s.E2E.Count == 0 && s.Staleness.Count == 0 && len(s.Conns) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\nfreshness:\n")
	if s.E2E.Count > 0 {
		fmt.Fprintf(&b, "  e2e latency %8d spans  p50 %s  p95 %s  p99 %s\n",
			s.E2E.Count, fmtSec(s.E2E.P50), fmtSec(s.E2E.P95), fmtSec(s.E2E.P99))
	}
	if s.Staleness.Count > 0 {
		fmt.Fprintf(&b, "  staleness   %8d spans  p50 %s  p95 %s  p99 %s\n",
			s.Staleness.Count, fmtSec(s.Staleness.P50), fmtSec(s.Staleness.P95), fmtSec(s.Staleness.P99))
	}
	if n := len(s.E2E.Exemplars); n > 0 {
		ex := s.E2E.Exemplars[n-1]
		fmt.Fprintf(&b, "  worst span  %s  stream %s  trace %016x\n", fmtSec(ex.Value), ex.Stream, ex.TraceID)
	}
	for _, c := range s.Conns {
		fmt.Fprintf(&b, "  conn %-21s skew %+.3gs  rtt %.3gs  (%d pings)\n",
			c.Remote, c.OffsetSeconds, c.RTTSeconds, c.Samples)
	}
	return b.String()
}

// fmtSec renders a seconds value at millisecond-friendly precision.
func fmtSec(v float64) string {
	if v < 1 {
		return fmt.Sprintf("%.2fms", v*1e3)
	}
	return fmt.Sprintf("%.3fs", v)
}

// fetchHistory polls the telemetry-history dump (finest tier, last 30
// buckets per series). Any failure returns nil: the pane is optional.
func fetchHistory(client *http.Client, url string) *history.DumpPayload {
	resp, err := client.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var payload history.DumpPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil
	}
	return &payload
}

// fetchVars polls /debug/vars for the scalar metrics the dashboard
// derives ratios from. Histogram entries decode as objects and are
// skipped. Any failure returns nil.
func fetchVars(client *http.Client, url string) map[string]float64 {
	resp, err := client.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// renderTermCache formats the coordinator's innovation-term cache line:
// how often budget allocation reused a stream's cached terms versus
// recomputing them. Absent metrics (no coordinator running) render
// nothing.
func renderTermCache(vars map[string]float64) string {
	reused, okR := vars["coordinator_terms_reused_total"]
	recomputed, okC := vars["coordinator_terms_recomputed_total"]
	if !okR && !okC {
		return ""
	}
	total := reused + recomputed
	rate := 0.0
	if total > 0 {
		rate = reused / total
	}
	return fmt.Sprintf("\ncoordinator term cache: %.1f%% hit (%.0f reused / %.0f recomputed)\n",
		rate*100, reused, recomputed)
}

// renderHistory formats the telemetry-history pane: the detector's
// recent anomaly findings plus compact sparklines for the busiest
// finest-tier series.
func renderHistory(dump *history.DumpPayload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nhistory (tier 0, last 30 buckets, %d series", dump.SeriesCount)
	if dump.AnomalyTotal > 0 {
		fmt.Fprintf(&b, ", %d anomalies", dump.AnomalyTotal)
	}
	b.WriteString("):\n")
	for _, f := range dump.Anomalies {
		fmt.Fprintf(&b, "  ! tick %-8d %s%s value %.3g vs median %.3g (z=%.1f)\n",
			f.Tick, f.Name, f.Labels, f.Value, f.Median, f.Z)
	}
	for _, r := range topActive(dump.Series, 5) {
		vals := make([]float64, 0, len(r.Points))
		for _, p := range r.Points {
			switch r.Kind {
			case "gauge":
				vals = append(vals, p.Value)
			case "histogram":
				vals = append(vals, p.Count)
			default:
				vals = append(vals, p.Rate)
			}
		}
		fmt.Fprintf(&b, "  %-36s %s\n", r.Name+r.Labels, spark(vals))
	}
	return b.String()
}

// topActive picks the n series with the most recent activity — summed
// counter deltas, histogram counts, or peak gauge magnitude — so the
// pane shows what is moving, not an alphabetical slice.
func topActive(series []history.SeriesRange, n int) []history.SeriesRange {
	type scored struct {
		r     history.SeriesRange
		score float64
	}
	var ss []scored
	for _, r := range series {
		score := 0.0
		for _, p := range r.Points {
			switch r.Kind {
			case "gauge":
				if a := p.Max; a > score {
					score = a
				}
			case "histogram":
				score += p.Count
			default:
				score += p.Value
			}
		}
		if score > 0 {
			ss = append(ss, scored{r, score})
		}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].r.Name < ss[j].r.Name
	})
	if len(ss) > n {
		ss = ss[:n]
	}
	out := make([]history.SeriesRange, len(ss))
	for i, s := range ss {
		out[i] = s.r
	}
	return out
}

func fetchHealth(client *http.Client, url string) (*health.DebugPayload, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var payload health.DebugPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &payload, nil
}

// sparkRunes is the classic eighth-block ramp.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a fixed-height sparkline, scaled to the
// largest value (an all-zero series renders as a flat baseline).
func spark(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 && v > 0 {
			idx = int(v / max * float64(len(sparkRunes)-1))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// renderTop formats one dashboard frame. prev is the previous poll (nil
// on the first frame — rates show as "-" until there is a baseline) and
// elapsed the wall-clock seconds between the polls.
func renderTop(prev, cur *health.DebugPayload, elapsed float64) string {
	var b strings.Builder
	sev := strings.ToUpper(cur.Severity)
	fmt.Fprintf(&b, "kalmanstream top — tick %d, severity %s, %d active alert(s), %d stream(s)\n\n",
		cur.Tick, sev, cur.ActiveAlerts, len(cur.Streams))

	fmt.Fprintf(&b, "%-18s %-5s %14s %8s  %s\n", "SLO", "SEV", "BURN fast/slow", "BUDGET", "WINDOWS (bad ratio)")
	for _, s := range cur.SLOs {
		fmt.Fprintf(&b, "%-18s %-5s %6s/%-7s %8.3g  %s\n",
			s.Name, s.Severity, fmtBurn(s.BurnFast), fmtBurn(s.BurnSlow), s.Budget, spark(s.Windows))
	}

	fmt.Fprintf(&b, "\n%-12s %9s %9s %8s %6s\n", "STREAM", "SENT/s", "SUPP/s", "δ", "STALE")
	prevStreams := map[string]health.StreamStat{}
	if prev != nil {
		for _, st := range prev.Streams {
			prevStreams[st.ID] = st
		}
	}
	streams := append([]health.StreamStat(nil), cur.Streams...)
	sort.Slice(streams, func(i, j int) bool { return streams[i].ID < streams[j].ID })
	for _, st := range streams {
		sent, supp := "-", "-"
		if p, ok := prevStreams[st.ID]; ok && elapsed > 0 {
			sent = fmt.Sprintf("%.1f", float64(st.Sent-p.Sent)/elapsed)
			supp = fmt.Sprintf("%.1f", float64(st.Suppressed-p.Suppressed)/elapsed)
		}
		staleMark := ""
		if st.Stale {
			staleMark = "STALE"
		}
		fmt.Fprintf(&b, "%-12s %9s %9s %8.3g %6s\n", st.ID, sent, supp, st.Delta, staleMark)
	}

	if len(cur.Transitions) > 0 {
		b.WriteString("\nrecent alerts:\n")
		for _, tr := range cur.Transitions {
			fmt.Fprintf(&b, "  tick %-8d %-18s %s -> %s (burn %s/%s)\n",
				tr.Tick, tr.SLO, tr.FromName, tr.ToName, fmtBurn(tr.BurnFast), fmtBurn(tr.BurnSlow))
		}
	}
	return b.String()
}

// fmtBurn keeps burn rates readable: the JSON +Inf sentinel renders as
// "inf" rather than a nine-digit number.
func fmtBurn(v float64) string {
	if v >= 1e9 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}
