package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kalmanstream/internal/freshness"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/wire"
)

// runner carries one invocation's settings through every workload.
type runner struct {
	sc      scale
	seed    int64
	seconds float64
	traced  bool // record spans in the second half and run the layer probes
	corrupt bool // self-test: falsify one expected measurement in the checker's table

	root   string // module root (where ./cmd/kfserver builds from)
	work   string // scratch directory inside the checkout
	outDir string // span files and layers.json
	out    io.Writer
}

// Deployed-path settings of paced_full, as the issue fixes them.
const (
	walFlushEvery   = 20 * time.Millisecond
	checkpointEvery = 2 * time.Second
	staleAfter      = 5 * time.Second
)

// live is one set-up server with its load-generator connections.
type live struct {
	proc   *serverProc
	conns  []*wire.Client
	walDir string
}

func (l *live) close() {
	for _, c := range l.conns {
		c.Close()
	}
	if l.proc != nil {
		l.proc.kill()
	}
	if l.walDir != "" {
		os.RemoveAll(l.walDir)
	}
}

func (r *runner) serverBin() string { return filepath.Join(r.work, "kfserver") }

// serverArgs is the flag set a workload's server runs with.
func (r *runner) serverArgs(w *workloadDef, walDir string) []string {
	if !w.full {
		return nil
	}
	return []string{"-trace", "-stale-after", staleAfter.String(), "-wal-dir", walDir,
		"-wal-flush", walFlushEvery.String(), "-checkpoint-every", checkpointEvery.String()}
}

func dialConns(addr string, n int) ([]*wire.Client, error) {
	conns := make([]*wire.Client, n)
	for i := range conns {
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		c.EnableCoalescing(wire.CoalesceConfig{MaxCorrections: 64})
		conns[i] = c
	}
	return conns, nil
}

// eachConn runs fn once per connection, concurrently, and joins the errors.
func eachConn(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[c] = fmt.Errorf("conn %d: panic: %v", c, p)
				}
			}()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup does everything a workload needs before its timed phase: build
// kfserver, start it, connect, register the population, and (query_flood)
// apply the preload ticks. logs receive the `register` spans.
func (r *runner) setup(w *workloadDef, tr *genTrace, logs []*spanLog) (l *live, err error) {
	if err := buildServer(r.root, r.serverBin()); err != nil {
		return nil, err
	}
	l = &live{}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	if w.full {
		if l.walDir, err = os.MkdirTemp(r.work, "wal-*"); err != nil {
			return nil, err
		}
	}
	if l.proc, err = startServer(r.serverBin(), w.full, r.serverArgs(w, l.walDir)...); err != nil {
		return nil, err
	}
	if l.conns, err = dialConns(l.proc.addr, r.sc.conns); err != nil {
		return nil, err
	}
	err = eachConn(r.sc.conns, func(c int) error {
		lo, hi := tr.pop.owned(c)
		for i := lo; i < hi; i++ {
			def := tr.pop.streams[i]
			id := logs[c].begin("register", 0)
			if err := l.conns[c].Register(def.id, def.spec, def.delta); err != nil {
				return fmt.Errorf("register %s: %w", def.id, err)
			}
			logs[c].end(id)
		}
		if !w.preload {
			return nil
		}
		m := netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}
		for t := 0; t < r.sc.preloadTicks; t++ {
			for _, rec := range tr.tickRecords(c, t) {
				m.StreamID, m.Tick, m.Value[0] = tr.pop.streams[rec.stream].id, int64(rec.tick), rec.value
				if err := l.conns[c].SendCorrection(&m); err != nil {
					return fmt.Errorf("preload tick %d: %w", t, err)
				}
			}
		}
		_, err := l.conns[c].Query(tr.pop.streams[lo].id, int64(r.sc.preloadTicks-1))
		return err
	})
	return l, err
}

// runWorkload generates a workload's inputs from the seed, sets the
// server up (several times: setup_s is the median), runs the timed phase,
// and checks everything the server answered.
func (r *runner) runWorkload(w *workloadDef) (*workloadResult, error) {
	res := newWorkloadResult(w)
	pop := newPopulation(r.sc.streams, r.sc.conns)
	ticks := w.traceTicks(r.sc, r.seconds)
	if ticks < 1 {
		return nil, fmt.Errorf("%s: -seconds %g leaves no ticks to replay", w.name, r.seconds)
	}
	rng := rand.New(rand.NewSource(r.seed))
	plans := w.plan(r.sc, pop, ticks, rng)
	truth := newTruthTable(len(pop.streams))
	for _, plan := range plans {
		for _, q := range plan {
			truth.want(q)
		}
	}
	truth.seal()

	genStart := time.Now()
	tr, err := generateTrace(pop, r.seed, ticks, truth)
	if err != nil {
		return nil, err
	}
	genS := time.Since(genStart).Seconds()
	chk := &checker{pop: pop, truth: truth}
	if w.preload {
		chk.guaranteedBefore = firstCorrectionFrom(tr, r.sc.preloadTicks)
	}
	if r.corrupt {
		// The checker's table, not the server's input: the run must notice
		// that one planned answer no longer matches, count it and fail.
		for _, q := range plans[0] {
			if chk.guaranteedBefore == nil || q.tick < chk.guaranteedBefore[q.stream] {
				j, _ := truth.slot(int(q.stream), q.tick)
				truth.z[q.stream][j] += 10
				break
			}
		}
	}

	// One span log per connection plus the scraper's. Spans are recorded
	// only in a traced run: around the last set-up's registrations, then
	// through the second half of the timed phase.
	var spansOn atomic.Bool
	logs := make([]*spanLog, r.sc.conns+1)
	for i := range logs {
		logs[i] = &spanLog{conn: i, on: &spansOn}
	}

	// Set up setupReps times; keep the last for the timed phase. The first
	// set-up of a fresh checkout pays the cold compile, which the median
	// drops.
	var l *live
	setupS := make([]float64, 0, r.sc.setupReps)
	for rep := 0; rep < r.sc.setupReps; rep++ {
		last := rep == r.sc.setupReps-1
		t0 := time.Now()
		if last {
			for _, lg := range logs {
				lg.epoch = t0
			}
			spansOn.Store(r.traced)
		}
		l, err = r.setup(w, tr, logs)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if !last {
			l.close()
		}
	}
	defer l.close()
	spansOn.Store(false)
	registerSpans := 0
	for _, lg := range logs {
		registerSpans += len(lg.spans)
	}

	// Timed phase.
	// The connections and the coordinator share one origin, a moment ahead.
	ph := &phase{tr: tr, chk: chk, start: time.Now().Add(20 * time.Millisecond)}
	if w.stamped {
		ph.stamp = freshness.WallClock()
	}
	ph.deadline = ph.start.Add(time.Duration(r.seconds * float64(time.Second)))
	conns := make([]*connRun, r.sc.conns)
	for c := range conns {
		cr := &connRun{idx: c, c: l.conns[c], plan: plans[c], lastTick: -1, lastRead: -1, spans: logs[c],
			msg: netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}}
		cr.lat = make([]time.Duration, 0, len(plans[c])+1)
		cr.rtt = make([]time.Duration, 0, len(plans[c])+1)
		if w.stamped {
			cr.late = make([]time.Duration, 0, len(plans[c])+ticks)
			cr.flush = make([]time.Duration, 0, ticks)
		}
		conns[c] = cr
	}
	var scr *scraper
	if w.full {
		scr = startScraper(l.proc.httpAddr, ph, r.sc.scrapePeriod, logs[r.sc.conns])
	}
	tm, phaseErr := r.runPhase(w, ph, conns, l.proc.pid(), &spansOn)
	spansOn.Store(false)
	if scr != nil {
		scr.wait()
	}
	peakRSS, err := procStatusMB(l.proc.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	if phaseErr != nil {
		return nil, fmt.Errorf("%s: timed phase: %w\nserver log:\n%s", w.name, phaseErr, l.proc.stderrTail())
	}

	// Everything below is verification and read-back, outside the timing.
	var sentPhase, queries int64
	for _, cr := range conns {
		sentPhase += cr.sent
		queries += cr.queries
		res.Failed += cr.failed
	}
	res.Attempted = sentPhase + queries
	sentTotal := sentPhase
	if w.preload {
		for c := range conns {
			sentTotal += tr.corrections(c, r.sc.preloadTicks)
		}
	}

	// (b) TCP-concurrent path ≡ serial path, on a seeded sample (every
	// stream in paced_full, whose epilogue reads them all anyway).
	readAt := make([]int, r.sc.conns)    // tick each connection's streams are read at
	appliedTo := make([]int, r.sc.conns) // ticks [0, appliedTo) were sent
	for c, cr := range conns {
		readAt[c] = max(cr.lastTick, cr.lastRead)
		appliedTo[c] = cr.lastTick + 1
		if w.preload {
			appliedTo[c] = r.sc.preloadTicks
		}
	}
	sample := sampleStreams(pop, r.sc.sampleReads, rng)
	toRead := sample
	if w.full {
		toRead = make([]int, len(pop.streams))
		for i := range toRead {
			toRead[i] = i
		}
	}
	before, failed, err := readAnswers(l.conns, pop, toRead, readAt)
	if err != nil {
		return nil, fmt.Errorf("%s: final reads: %w", w.name, err)
	}
	res.Attempted += int64(len(toRead))
	res.Failed += failed
	res.Failed += r.checkAgainstReference(tr, chk, sample, before, readAt, appliedTo)

	// (c) the server's own books, where they can be read at all.
	tel, telNote := fetchTelemetry(l)
	if tel != nil {
		a, f := checkTelemetry(chk, tel, sentTotal)
		res.Attempted += a
		res.Failed += f
		addTelemetryExtras(res, tel)
	} else {
		res.Notes = append(res.Notes, telNote)
	}

	// (d) crash recovery.
	if w.full {
		if err := r.recoveryEpilogue(w, l, pop, chk, toRead, before, readAt, res); err != nil {
			return nil, fmt.Errorf("%s: recovery epilogue: %w", w.name, err)
		}
	}
	if scr != nil {
		res.Attempted += int64(len(scr.durs)) + scr.failed
		res.Failed += scr.failed
		if len(scr.durs) > 0 {
			ms := sortedMillis(scr.durs)
			res.extra("scrape_p50_ms", quantile(ms, 0.5), "ms")
			res.extra("scrape_samples", float64(len(ms)), "count")
			res.extra("telemetry.scrape_bytes.live", float64(scr.bytes), "B")
		}
	}
	res.Notes = append(res.Notes, chk.notes...)
	res.extra("queries_held_to_truth", float64(chk.held.Load()), "count")
	res.Correct = res.Failed == 0

	r.fillMetrics(w, res, tr, tm, conns, genS, setupS, peakRSS, sentPhase)

	if r.traced {
		path := filepath.Join(r.outDir, "spans_"+w.name+".jsonl")
		n, err := writeSpans(path, logs)
		if err != nil {
			return nil, err
		}
		res.layer("loadgen.spans", float64(n), "count")
		fmt.Fprintf(r.out, "  wrote %d spans (%d register) to %s\n", n, registerSpans, path)
	}
	return res, nil
}

// answer is one final read, compared bit for bit.
type answer struct {
	est, bound float64
	ok         bool
}

// readAnswers queries each listed stream over its owning connection at
// that connection's read tick. A query that errors or answers oddly
// counts as failed; only a dead connection is an error.
func readAnswers(conns []*wire.Client, pop *population, streams []int, readAt []int) (map[int]answer, int64, error) {
	var mu sync.Mutex
	out := make(map[int]answer, len(streams))
	var failed int64
	err := eachConn(len(conns), func(c int) error {
		for _, i := range streams {
			def := pop.streams[i]
			if def.conn != c {
				continue
			}
			ans, err := conns[c].Query(def.id, int64(readAt[c]))
			a := answer{}
			if err == nil && len(ans.Estimate) == 1 {
				a = answer{ans.Estimate[0], ans.Bound, true}
			} else if err != nil && !errors.Is(err, wire.ErrServer) {
				return fmt.Errorf("query %s: %w", def.id, err)
			}
			mu.Lock()
			out[i] = a
			if !a.ok {
				failed++
			}
			mu.Unlock()
		}
		return nil
	})
	return out, failed, err
}

// checkAgainstReference compares the sampled final answers with the
// serial in-process reference and returns how many differ.
func (r *runner) checkAgainstReference(tr *genTrace, chk *checker, sample []int, got map[int]answer, readAt, appliedTo []int) (failed int64) {
	for c := 0; c < tr.pop.conns; c++ {
		recs := make(map[uint32][]record)
		for _, i := range sample {
			if tr.pop.streams[i].conn == c {
				recs[uint32(i)] = nil
			}
		}
		streamRecords(tr, c, appliedTo[c], recs)
		for i, rs := range recs {
			def := tr.pop.streams[i]
			a := got[int(i)]
			if !a.ok {
				continue // already counted by readAnswers
			}
			est, bound, err := referenceAnswer(def, rs, readAt[c])
			if err != nil {
				failed++
				chk.note(fmt.Errorf("reference %s: %w", def.id, err))
			} else if est != a.est || bound != a.bound {
				failed++
				chk.note(fmt.Errorf("%s@%d: server answered (%v ± %g), the serial reference (%v ± %g)",
					def.id, readAt[c], a.est, a.bound, est, bound))
			}
		}
	}
	return failed
}

// fetchTelemetry reads the server's registry back: over HTTP when the
// server has the surface, else over the wire's metrics frame. The frame
// is capped at 1 MiB, which a bare server outgrows at ≈1,000 streams, so
// at pop10k the bare workloads have no telemetry to read — reported, not
// papered over.
func fetchTelemetry(l *live) (*promText, string) {
	var text string
	if l.proc.httpAddr != "" {
		resp, err := http.Get("http://" + l.proc.httpAddr + "/metrics")
		if err != nil {
			return nil, "telemetry: " + err.Error()
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "telemetry: " + err.Error()
		}
		text = string(b)
	} else {
		t, err := l.conns[0].Metrics()
		if err != nil {
			return nil, "telemetry unavailable over the wire: " + strings.TrimPrefix(err.Error(), "wire: server error: ")
		}
		text = t
	}
	p, err := parsePromText(text)
	if err != nil {
		return nil, "telemetry: " + err.Error()
	}
	return p, ""
}

// checkTelemetry holds the server's counters against what was sent.
func checkTelemetry(chk *checker, tel *promText, sent int64) (attempted, failed int64) {
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"corrections_sent_total", tel.sum("corrections_sent_total"), float64(sent)},
		{"wire_duplicates_dropped_total", tel.sum("wire_duplicates_dropped_total"), 0},
		{"watchdog_resync_requests_total", tel.sum("watchdog_resync_requests_total"), 0},
	} {
		attempted++
		if c.got != c.want {
			failed++
			chk.note(fmt.Errorf("server counts %s = %v, want %v", c.name, c.got, c.want))
		}
	}
	return attempted, failed
}

// addTelemetryExtras publishes the layer numbers only the server's own
// telemetry can give (source T in the README's table).
func addTelemetryExtras(res *workloadResult, tel *promText) {
	if h := tel.histogram("wire_frame_handle_seconds", "kind", "message-batch"); h.Count > 0 {
		res.extra("wire.frame_handle_us.batch", h.Mean()*1e6, "us")
	}
	if h := tel.histogram("wire_frame_handle_seconds", "kind", "query"); h.Count > 0 {
		res.extra("wire.frame_handle_us.query", h.Mean()*1e6, "us")
	}
	if h := tel.histogram("wire_corrections_per_frame"); h.Count > 0 {
		res.extra("wire.corr_per_frame", h.Mean(), "count")
	}
	if h := tel.histogram(freshness.SeriesE2ELatency); h.Count > 0 {
		res.extra("freshness.e2e_p50_ms", h.Quantile(0.5)*1e3, "ms")
		res.extra("freshness.e2e_p99_ms", h.Quantile(0.99)*1e3, "ms")
	}
	if h := tel.histogram("wal_fsync_seconds"); h.Count > 0 {
		res.extra("wal.fsyncs", float64(h.Count), "count")
	}
	if n := tel.sum("history_series_dropped"); n > 0 {
		res.extra("history.series_dropped.live", n, "count")
	}
	res.extra("telemetry.series.live", float64(tel.lines), "count")
}

// recoveryEpilogue is paced_full's crash test: let the log flush, SIGKILL
// the server, restart it on the same directory, time how long until it
// answers, and require every stream's answer to be what it was.
func (r *runner) recoveryEpilogue(w *workloadDef, l *live, pop *population, chk *checker,
	streams []int, before map[int]answer, readAt []int, res *workloadResult) error {
	time.Sleep(3 * walFlushEvery)
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
	l.proc.kill()

	t0 := time.Now()
	proc, err := startServer(r.serverBin(), true, r.serverArgs(w, l.walDir)...)
	if err != nil {
		return err
	}
	l.proc = proc
	if l.conns, err = dialConns(proc.addr, r.sc.conns); err != nil {
		return err
	}
	first := pop.streams[streams[0]]
	if _, err := l.conns[first.conn].Query(first.id, int64(readAt[first.conn])); err != nil {
		return fmt.Errorf("first query after restart: %w", err)
	}
	res.extra("wal.recovery_s", time.Since(t0).Seconds(), "s")

	after, failed, err := readAnswers(l.conns, pop, streams, readAt)
	if err != nil {
		return err
	}
	res.Attempted += int64(len(streams))
	res.Failed += failed
	for _, i := range streams {
		if a, b := before[i], after[i]; a.ok && b.ok && a != b {
			res.Failed++
			chk.note(fmt.Errorf("%s: answered (%v ± %g) before the kill, (%v ± %g) after recovery",
				pop.streams[i].id, a.est, a.bound, b.est, b.bound))
		}
	}
	tel, note := fetchTelemetry(l)
	if tel == nil {
		return errors.New(note)
	}
	res.Attempted++
	if n := tel.sum("watchdog_resync_requests_total"); n != 0 {
		res.Failed++
		chk.note(fmt.Errorf("%v resync requests after the restart, want 0", n))
	}
	res.extra("wal.records_replayed", tel.sum("wal_recovery_replayed_total"), "count")
	res.extra("wal.recovered_streams", tel.sum("wal_recovered_streams"), "count")
	return nil
}

// scraper GETs /metrics on a fixed schedule through a timed phase, the
// way a Prometheus would, reading every body to the end.
type scraper struct {
	done   chan struct{}
	durs   []time.Duration
	bytes  int64 // size of the last body
	failed int64
}

func startScraper(httpAddr string, ph *phase, period time.Duration, log *spanLog) *scraper {
	s := &scraper{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		client := &http.Client{Timeout: 30 * time.Second}
		for due := ph.start.Add(period / 2); due.Before(ph.deadline); due = due.Add(period) {
			time.Sleep(time.Until(due))
			id := log.begin("scrape", 0)
			t0 := time.Now()
			resp, err := client.Get("http://" + httpAddr + "/metrics")
			if err != nil {
				s.failed++
				continue
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			log.end(id)
			if err != nil || resp.StatusCode != http.StatusOK {
				s.failed++
				continue
			}
			s.durs = append(s.durs, time.Since(t0))
			s.bytes = n
		}
	}()
	return s
}

func (s *scraper) wait() { <-s.done }
