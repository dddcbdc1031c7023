package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"kalmanstream/internal/buildinfo"
)

// metric is one published number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDecl declares a metric BENCHMARK.json lists. The smoke test holds
// the two against each other so the names cannot drift.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the deployed system sees. Every workload
// reports every one of them; what an "op" and a "query" are on each
// workload is in the README's table.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.25},
}

// perLayer is what the traced run reports for every workload: the
// in-process probes (workload-independent), the load generator's own
// numbers, and two figures derived from both.
var perLayer = []metricDecl{
	{"stream.next_ns", "ns", "lower", 0},
	{"source.observe_ns", "ns", "lower", 0},
	{"source.allocs_per_tick", "count", "lower", 0},
	{"source.msgs_per_tick", "ratio", "lower", 0},
	{"predictor.step_ns.rw1", "ns", "lower", 0},
	{"predictor.step_ns.cv2", "ns", "lower", 0},
	{"predictor.update_ns.rw1", "ns", "lower", 0},
	{"predictor.update_ns.cv2", "ns", "lower", 0},
	{"netsim.encode_ns", "ns", "lower", 0},
	{"netsim.decode_ns", "ns", "lower", 0},
	{"netsim.bytes_per_corr", "B", "lower", 0},
	{"wire.frame_write_ns", "ns", "lower", 0},
	{"wire.frame_read_ns", "ns", "lower", 0},
	{"wire.frame_read_allocs", "count", "lower", 0},
	{"wire.apply_batch_ns_per_corr", "ns", "lower", 0},
	{"wire.apply_batch_ns_per_corr.2g", "ns", "lower", 0},
	{"wire.apply_scaling_2g", "ratio", "higher", 0},
	{"wire.apply_self_ns_per_corr", "ns", "lower", 0},
	{"wire.query_ns", "ns", "lower", 0},
	{"wire.register_us", "us", "lower", 0},
	{"wire.transport_us_per_op", "us", "lower", 0},
	{"server.tick_stream_ns", "ns", "lower", 0},
	{"server.apply_ns", "ns", "lower", 0},
	{"server.value_ns", "ns", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.sync_ms", "ms", "lower", 0},
	{"wal.bytes_per_corr", "B", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.recovery_ms", "ms", "lower", 0},
	{"telemetry.series", "count", "lower", 0},
	{"telemetry.scrape_ms", "ms", "lower", 0},
	{"telemetry.scrape_bytes", "B", "lower", 0},
	{"freshness.record_ns", "ns", "lower", 0},
	{"health.tick_us", "us", "lower", 0},
	{"history.tick_ms", "ms", "lower", 0},
	{"history.series_dropped", "count", "lower", 0},
	{"diag.observe_ns", "ns", "lower", 0},
	{"trace.record_ns", "ns", "lower", 0},
	{"loadgen.cpu_frac", "ratio", "lower", 0},
	{"loadgen.query_rtt_us_p50", "us", "lower", 0},
	{"loadgen.query_p99_ms", "ms", "lower", 0},
	{"loadgen.query_p999_ms", "ms", "lower", 0},
	{"loadgen.spans", "count", "lower", 0},
	{"loadgen.trace_overhead_frac", "ratio", "lower", 0},
}

func declared(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// workloadResult is one workload's outcome. Metrics holds exactly the
// declared set for the run's mode (end-to-end untraced, per-layer
// traced); Extras holds what only some workloads can measure, and the
// end-to-end numbers of a traced run (informational: spans were on).
type workloadResult struct {
	Name      string            `json:"name"`
	Loop      string            `json:"loop"`
	Why       string            `json:"why"`
	Op        string            `json:"op"`
	Valid     bool              `json:"valid"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extras    map[string]metric `json:"extras"`
	Notes     []string          `json:"notes,omitempty"`
}

func newWorkloadResult(w *workloadDef) *workloadResult {
	return &workloadResult{Name: w.name, Loop: w.loop, Why: w.why, Op: w.op, Valid: true,
		Metrics: make(map[string]metric), Extras: make(map[string]metric)}
}

func (res *workloadResult) extra(name string, v float64, unit string) {
	res.Extras[name] = metric{v, unit}
}

// layer records a per-layer metric of a traced run.
func (res *workloadResult) layer(name string, v float64, unit string) {
	res.Metrics[name] = metric{v, unit}
}

// Validity limits: beyond them the run measured the load generator, not
// the server.
const (
	// Open loops: the generator must be on time at the percentile that
	// gates. (Its p99 lateness is printed too. On this box that is one to
	// two milliseconds — a spinning thread preempted on two busy cores —
	// which the printed p99 and p99.9 latencies therefore include.)
	maxLateP90    = 0.1 // ms
	maxLoadgenCPU = 1.2 // generator CPU-seconds per wall second
)

// windowStats are one window's figures.
type windowStats struct {
	opsPerS  float64
	cpuPerOp float64   // µs of server CPU per primary operation
	lat      []float64 // ms, ascending: the queries due (open loop) or sent (closed) in the window
}

// byWindow cuts a timed phase into its windows.
func byWindow(tm *timed, window time.Duration, conns []*connRun) []windowStats {
	marks := tm.windows(window)
	wins := make([]windowStats, len(marks)-1)
	for k := range wins {
		a, b := marks[k], marks[k+1]
		if ops := b.ops - a.ops; ops > 0 {
			wins[k].opsPerS = float64(ops) / (b.at - a.at).Seconds()
			wins[k].cpuPerOp = float64(b.cpu-a.cpu) / float64(time.Microsecond) / float64(ops)
		}
	}
	for _, cr := range conns {
		for i, at := range cr.latAt {
			k := sort.Search(len(wins)-1, func(k int) bool { return at < marks[k+1].at })
			wins[k].lat = append(wins[k].lat, float64(cr.lat[i])/float64(time.Millisecond))
		}
	}
	for k := range wins {
		sort.Float64s(wins[k].lat)
	}
	return wins
}

// medianOver is the median over windows of one figure of each.
func medianOver(wins []windowStats, f func(*windowStats) float64) float64 {
	v := make([]float64, len(wins))
	for k := range wins {
		v[k] = f(&wins[k])
	}
	return median(v)
}

// fillMetrics turns the timed phase's raw samples into named metrics.
// Every end-to-end figure but set-up time is the median over the phase's
// windows: one slow window — a neighbour's burst, a late timer — moves a
// whole-run percentile but not the median window's.
func (r *runner) fillMetrics(w *workloadDef, res *workloadResult, tr *genTrace, tm timed,
	conns []*connRun, genS float64, setupS []float64, peakRSS float64, sentPhase int64) {
	var lats, rtts, lates, flushes [][]time.Duration
	for _, cr := range conns {
		lats, rtts = append(lats, cr.lat), append(rtts, cr.rtt)
		lates, flushes = append(lates, cr.late), append(flushes, cr.flush)
	}
	lat, rtt := sortedMillis(lats...), sortedMillis(rtts...)
	wall := tm.wall().Seconds()
	wins := byWindow(&tm, r.sc.window, conns)
	e2e := map[string]metric{
		"setup_s":              {genS + median(setupS), "s"},
		"ops_per_s":            {medianOver(wins, func(w *windowStats) float64 { return w.opsPerS }), "1/s"},
		"server_cpu_us_per_op": {medianOver(wins, func(w *windowStats) float64 { return w.cpuPerOp }), "us"},
		"query_p50_ms":         {medianOver(wins, func(w *windowStats) float64 { return quantile(w.lat, 0.5) }), "ms"},
		"query_p90_ms":         {medianOver(wins, func(w *windowStats) float64 { return quantile(w.lat, 0.9) }), "ms"},
		"server_rss_mb":        {peakRSS, "MB"},
	}
	cpuFrac := tm.selfCPU.Seconds() / wall
	// The generator's own figures are per-layer metrics in a traced run
	// and printed extras otherwise.
	own := res.extra
	if r.traced {
		own = res.layer
		for name, m := range e2e {
			res.Extras[name+".traced"] = m
		}
		// The windows before spansFrom ran with spans off, the rest with
		// spans on: what recording costs the server per operation.
		overhead := 0.0
		if from := tm.spansFrom; from > 0 && from < len(wins) {
			cpu := func(w *windowStats) float64 { return w.cpuPerOp }
			if off := medianOver(wins[:from], cpu); off > 0 {
				overhead = (medianOver(wins[from:], cpu) - off) / off
			}
		}
		res.layer("loadgen.trace_overhead_frac", overhead, "ratio")
	} else {
		res.Metrics = e2e
	}
	own("source.msgs_per_tick", tr.msgsPerTick(), "ratio")
	own("loadgen.cpu_frac", cpuFrac, "ratio")
	own("loadgen.query_rtt_us_p50", quantile(rtt, 0.5)*1e3, "us")
	own("loadgen.query_p99_ms", quantile(lat, 0.99), "ms")
	own("loadgen.query_p999_ms", quantile(lat, 0.999), "ms")

	res.extra("windows", float64(len(wins)), "count")
	res.extra("setup_trace_gen_s", genS, "s")
	res.extra("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.extra("query_samples", float64(len(lat)), "count")
	res.extra("query_samples_per_window", medianOver(wins, func(w *windowStats) float64 { return float64(len(w.lat)) }), "count")
	// The highest percentile the whole run's sample count supports, by name.
	top := highestPercentile(len(lat))
	res.extra("query_p"+strconv.FormatFloat(top*100, 'f', -1, 64)+"_ms.highest_supported", quantile(lat, top), "ms")
	res.extra("loadgen.query_max_ms", quantile(lat, 1), "ms")
	if w.op == "correction" {
		// Streams × Hz a node absorbs: the same number as ops_per_s times
		// the trace's constant ticks-per-correction, so not a separate gate.
		res.extra("loadgen.stream_ticks_per_s", e2e["ops_per_s"].Value/tr.msgsPerTick(), "1/s")
		res.extra("corrections_sent", float64(sentPhase), "count")
	}
	if cpuFrac > maxLoadgenCPU {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("INVALID: loadgen.cpu_frac %.2f > %.1f", cpuFrac, maxLoadgenCPU))
	}
	if late := sortedMillis(lates...); len(late) > 0 {
		p90 := quantile(late, 0.9)
		var blocked int64
		for _, cr := range conns {
			blocked += cr.blocked
		}
		res.extra("loadgen.late_p90_ms", p90, "ms")
		res.extra("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
		res.extra("loadgen.blocked_frac", float64(blocked)/float64(blocked+int64(len(late))), "ratio")
		res.extra("loadgen.flush_us_p50", quantile(sortedMillis(flushes...), 0.5)*1e3, "us")
		if p90 > maxLateP90 {
			res.Valid = false
			res.Notes = append(res.Notes, fmt.Sprintf("INVALID: loadgen.late_p90_ms %.3f > %.1f", p90, maxLateP90))
		}
	}
}

// envInfo pins down where a result was measured, so a noisy neighbour or
// a different box is visible in the file instead of argued about later.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"git_revision"`
	Kernel     string `json:"kernel"`
	GOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	// CalibNs times a fixed pure-CPU loop when the run starts and when it
	// ends: two numbers that agree with each other and with another file's
	// mean the same box in the same mood.
	CalibNs [2]int64 `json:"calib_ns"`
}

// calibrate times a fixed pure-CPU loop (an xorshift chain: no memory
// traffic, no allocation, nothing the compiler can fold).
func calibrate() int64 {
	best := int64(0)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		if d := int64(time.Since(t0)); best == 0 || d < best {
			best = d
		}
	}
	return best
}

var calibSink uint64

func newEnvInfo() envInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Revision: buildinfo.Revision(), Kernel: kernel, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// resultSet is one pass over the workloads; resultFile is what -out
// writes (one set, or -repeat N of them).
type resultSet struct {
	Env       envInfo           `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Smoke     bool              `json:"smoke"`
	Workloads []*workloadResult `json:"workloads"`
}

type resultFile struct {
	Sets []*resultSet `json:"sets"`
	// Claim is always null: the benchmark defines names and claims no gain.
	Claim *string `json:"claim"`
}

func writeResultFile(path string, f *resultFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &f, nil
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(out io.Writer, res *workloadResult, traced bool) {
	fmt.Fprintf(out, "workload %s [%s; op = %s]\n  why: %s\n", res.Name, res.Loop, res.Op, res.Why)
	for _, d := range declared(traced) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(out, "  %-36s %16.4f %s\n", d.name, m.Value, m.Unit)
		} else {
			fmt.Fprintf(out, "  %-36s %16s\n", d.name, "MISSING")
		}
	}
	names := make([]string, 0, len(res.Extras))
	for n := range res.Extras {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  (%s)%*s %16.4f %s\n", n, max(0, 34-len(n)), "", res.Extras[n].Value, res.Extras[n].Unit)
	}
	fmt.Fprintf(out, "  checks: attempted %d, failed %d, correct %v, valid %v\n", res.Attempted, res.Failed, res.Correct, res.Valid)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
}

// contractLine is the single JSON object the driver reads from the last
// line of standard output.
func contractLine(res *workloadResult, traced bool) (string, error) {
	metrics := make(map[string]metric)
	for _, d := range declared(traced) {
		m, ok := res.Metrics[d.name]
		if !ok {
			return "", fmt.Errorf("%s: declared metric %s was not measured", res.Name, d.name)
		}
		metrics[d.name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}
