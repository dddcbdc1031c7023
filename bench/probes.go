package main

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/source"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wal"
	"kalmanstream/internal/wire"
)

// The in-process probes (source P in the README's table). Each times
// calls into one layer's public functions, from outside the program, on
// inputs generated the same way the workloads' are. They say where the
// server's CPU per operation can come from; the end-to-end runs say where
// it does. Iteration counts are fixed, sized so the whole set takes a few
// seconds — it runs inside every traced run.

const (
	probeCalls = 200_000 // iterations of a nanosecond-scale call
	probeTicks = 60      // ticks of trace behind the wire/server probes
	probeSeed  = 7       // the probes' own inputs; not the run seed, so they repeat across runs
)

var discardLog = slog.New(slog.DiscardHandler)

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// medianOf runs fn reps times and returns the median of its results.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	v := make([]float64, reps)
	for i := range v {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		v[i] = x
	}
	return median(v), nil
}

type prober struct {
	r   *runner
	pop *population
	tr  *genTrace
	// frames[c] are connection c's probe-trace corrections packed 64 to a
	// batch payload, exactly what a flood connection puts on the wire.
	frames [][][]byte
	corr   int // corrections in frames
	out    map[string]metric
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// runProbes measures every layer once; the results join each traced
// workload's per-layer metrics.
func runProbes(r *runner) (map[string]metric, error) {
	p := &prober{r: r, pop: newPopulation(r.sc.streams, r.sc.conns), out: make(map[string]metric)}
	tr, err := generateTrace(p.pop, probeSeed, probeTicks, newTruthTable(len(p.pop.streams)))
	if err != nil {
		return nil, err
	}
	p.tr = tr
	if err := p.packFrames(); err != nil {
		return nil, err
	}
	for _, step := range []func() error{
		p.streamAndSource, p.predictors, p.codecAndFraming, p.wireServer, p.coreServer, p.walLog, p.fullServer, p.recorders,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	stepsPerCorr := float64(tr.attempts) / float64(tr.sent)
	p.set("wire.apply_self_ns_per_corr", p.out["wire.apply_batch_ns_per_corr"].Value-
		(stepsPerCorr*p.out["server.tick_stream_ns"].Value+p.out["server.apply_ns"].Value), "ns")
	return p.out, nil
}

// mergeProbes adds the probe results to a traced workload's metrics and
// derives the transport share: the server's measured CPU per operation
// minus what the same operation costs in-process — syscalls, scheduler,
// framing and (for queries) JSON, which is what buffering would save.
func mergeProbes(res *workloadResult, probes map[string]metric) {
	for n, m := range probes {
		res.Metrics[n] = m
	}
	inProcess := probes["wire.apply_batch_ns_per_corr"].Value
	if res.Op == "query" {
		inProcess = probes["wire.query_ns"].Value
	}
	res.layer("wire.transport_us_per_op", res.Extras["server_cpu_us_per_op.traced"].Value-inProcess/1e3, "us")
}

func (p *prober) packFrames() error {
	p.frames = make([][][]byte, p.pop.conns)
	m := netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}
	for c := range p.frames {
		var b netsim.Batch
		flush := func() {
			if b.Count() > 0 {
				p.frames[c] = append(p.frames[c], append([]byte(nil), b.Bytes()...))
				b.Reset()
			}
		}
		for _, rec := range p.tr.recs[c] {
			m.StreamID, m.Tick, m.Value[0] = p.pop.streams[rec.stream].id, int64(rec.tick), rec.value
			if err := b.Add(&m); err != nil {
				return err
			}
			p.corr++
			if b.Count() == 64 {
				flush()
			}
		}
		flush()
	}
	return nil
}

func (p *prober) streamAndSource() error {
	gen := p.pop.generator(probeSeed, 0, probeCalls)
	p.set("stream.next_ns", perCall(probeCalls, func(int) { gen.Next() }), "ns")

	// The gate on pre-drawn measurements, so only Observe is timed.
	gen = p.pop.generator(probeSeed, 0, probeCalls)
	z := make([]float64, probeCalls)
	for i := range z {
		pt, _ := gen.Next()
		z[i] = pt.Value[0]
	}
	def := p.pop.streams[0]
	src, err := source.New(source.Config{StreamID: def.id, Spec: def.spec, Delta: def.delta,
		HeartbeatEvery: heartbeatEvery, Telemetry: telemetry.New(), Trace: trace.NewJournal(1, 1)},
		func(m *netsim.Message) { netsim.PutMessage(m) })
	if err != nil {
		return err
	}
	var obsErr error
	var ns float64
	v := make([]float64, 1)
	allocs := mallocsDuring(func() {
		ns = perCall(probeCalls, func(i int) {
			v[0] = z[i]
			if _, err := src.Observe(int64(i), v); err != nil {
				obsErr = err
			}
		})
	})
	p.set("source.observe_ns", ns, "ns")
	p.set("source.allocs_per_tick", float64(allocs)/probeCalls, "count")
	return obsErr
}

func (p *prober) predictors() error {
	for _, k := range []struct {
		name string
		spec predictor.Spec
	}{{"rw1", specRW1}, {"cv2", specCV2}} {
		pr, err := k.spec.Build()
		if err != nil {
			return err
		}
		p.set("predictor.step_ns."+k.name, perCall(probeCalls, func(int) { pr.Step() }), "ns")
		var corrErr error
		z := make([]float64, 1)
		p.set("predictor.update_ns."+k.name, perCall(probeCalls, func(i int) {
			z[0] = float64(i&15) * 0.25
			if err := pr.Correct(z); err != nil {
				corrErr = err
			}
		}), "ns")
		if corrErr != nil {
			return corrErr
		}
	}
	return nil
}

func (p *prober) codecAndFraming() error {
	m := netsim.Message{Kind: netsim.KindCorrection, StreamID: p.pop.streams[len(p.pop.streams)-1].id,
		Tick: 123456, Value: []float64{3.25}}
	buf := make([]byte, 0, 64)
	var err error
	p.set("netsim.encode_ns", perCall(probeCalls, func(int) { buf, err = m.AppendEncode(buf[:0]) }), "ns")
	if err != nil {
		return err
	}
	p.set("netsim.bytes_per_corr", float64(len(buf)), "B")
	var out netsim.Message
	p.set("netsim.decode_ns", perCall(probeCalls, func(int) { err = netsim.DecodeInto(&out, buf) }), "ns")
	if err != nil {
		return err
	}

	// One full 64-correction frame through WriteFrame / ReadFrame.
	payload := p.frames[0][0]
	var w bytes.Buffer
	n := probeCalls / 10
	p.set("wire.frame_write_ns", perCall(n, func(int) {
		w.Reset()
		err = wire.WriteFrame(&w, wire.FrameMessageBatch, payload)
	}), "ns")
	if err != nil {
		return err
	}
	framed := append([]byte(nil), w.Bytes()...)
	rd := bytes.NewReader(framed)
	var ns float64
	allocs := mallocsDuring(func() {
		ns = perCall(n, func(int) {
			rd.Reset(framed)
			_, _, err = wire.ReadFrame(rd)
		})
	})
	p.set("wire.frame_read_ns", ns, "ns")
	p.set("wire.frame_read_allocs", float64(allocs)/float64(n), "count")
	return err
}

// newWireServer builds an in-process wire.Server the way a bare kfserver
// does and registers the population, returning microseconds per Register.
func (p *prober) newWireServer(opts wire.Options) (*wire.Server, float64, error) {
	opts.Logger = discardLog
	if opts.Metrics == nil {
		opts.Metrics = telemetry.New()
	}
	if opts.Trace == nil {
		opts.Trace = trace.NewJournal(1, 1)
	}
	srv := wire.NewServerWith(opts)
	us, err := p.registerAll(srv)
	return srv, us, err
}

func (p *prober) registerAll(srv *wire.Server) (float64, error) {
	t0 := time.Now()
	for _, def := range p.pop.streams {
		if err := srv.Register(wire.RegisterPayload{ID: def.id, Spec: def.spec, Delta: def.delta}); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(p.pop.streams)), nil
}

// applyFrames feeds connection c's frames to srv on the calling goroutine.
func (p *prober) applyFrames(srv *wire.Server, c int) error {
	var scratch netsim.Message
	for _, f := range p.frames[c] {
		if _, err := srv.ApplyBatch(f, &scratch); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) wireServer() error {
	// One goroutine applies both connections' frames…
	one, regUs, err := p.newWireServer(wire.Options{})
	if err != nil {
		return err
	}
	defer one.Close()
	p.set("wire.register_us", regUs, "us")
	t0 := time.Now()
	for c := range p.frames {
		if err := p.applyFrames(one, c); err != nil {
			return err
		}
	}
	oneG := float64(time.Since(t0)) / float64(p.corr)
	p.set("wire.apply_batch_ns_per_corr", oneG, "ns")

	// …then, on a fresh server, one goroutine per connection. Under a
	// single server mutex the two take as long as one (ratio ≈ 1); a
	// server that lets connections proceed independently approaches 2.
	two, _, err := p.newWireServer(wire.Options{})
	if err != nil {
		return err
	}
	defer two.Close()
	errs := make([]error, len(p.frames))
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := range p.frames {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = p.applyFrames(two, c)
		}(c)
	}
	wg.Wait()
	twoG := float64(time.Since(t0)) / float64(p.corr)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.set("wire.apply_batch_ns_per_corr.2g", twoG, "ns")
	p.set("wire.apply_scaling_2g", oneG/twoG, "ratio")

	// One predict-only step and a read per stream, as query_flood does.
	var qErr error
	p.set("wire.query_ns", perCall(len(p.pop.streams), func(i int) {
		if _, err := one.Query(wire.QueryPayload{ID: p.pop.streams[i].id, Tick: probeTicks}); err != nil {
			qErr = err
		}
	}), "ns")
	if qErr != nil {
		return qErr
	}

	// What a bare server exposes once pop10k is registered.
	reg := one.Registry()
	p.set("telemetry.series", float64(len(reg.Snapshot())), "count")
	var size countingWriter
	ms, err := medianOf(3, func() (float64, error) {
		size = 0
		t0 := time.Now()
		err := reg.WritePrometheus(&size)
		return float64(time.Since(t0)) / float64(time.Millisecond), err
	})
	p.set("telemetry.scrape_ms", ms, "ms")
	p.set("telemetry.scrape_bytes", float64(size), "B")
	return err
}

type countingWriter int64

func (w *countingWriter) Write(b []byte) (int, error) {
	*w += countingWriter(len(b))
	return len(b), nil
}

// coreServer times server.Server — the wire server's child — over the
// whole population, so each figure is the rw1/cv2 mix's average.
func (p *prober) coreServer() error {
	core := server.New()
	core.SetTelemetry(telemetry.New())
	core.SetTrace(trace.NewJournal(1, 1))
	for _, def := range p.pop.streams {
		if err := core.Register(def.id, def.spec, def.delta); err != nil {
			return err
		}
	}
	n := len(p.pop.streams)
	var err error
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	// Steps arrive the way lazy advance issues them: a run of about
	// steps-per-correction on one stream, then the next stream.
	run := int(p.tr.attempts / p.tr.sent)
	p.set("server.tick_stream_ns", perCall(probeCalls, func(i int) { keep(core.TickStream(p.pop.streams[i/run%n].id)) }), "ns")
	m := netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}
	p.set("server.apply_ns", perCall(probeCalls, func(i int) {
		m.StreamID, m.Tick, m.Value[0] = p.pop.streams[i%n].id, int64(i/n), float64(i&15)*0.25
		keep(core.Apply(&m))
	}), "ns")
	p.set("server.value_ns", perCall(probeCalls, func(i int) {
		_, _, e := core.Value(p.pop.streams[i%n].id)
		keep(e)
	}), "ns")
	return err
}

func (p *prober) walLog() error {
	dir, err := os.MkdirTemp(p.r.work, "probe-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := telemetry.New()
	log, err := wal.Open(wal.Options{Dir: dir, Registry: reg, Logger: discardLog})
	if err != nil {
		return err
	}
	defer log.Close()
	n := len(p.pop.streams)
	m := netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}
	appendOne := func(i int) {
		m.StreamID, m.Tick, m.Value[0] = p.pop.streams[i%n].id, int64(i), float64(i&15)*0.25
		if e := log.AppendMessage(m.Tick, &m); e != nil {
			err = e
		}
	}
	p.set("wal.append_ns", perCall(probeCalls, func(i int) {
		appendOne(i)
		if i&4095 == 4095 { // the group-commit drain, as the flusher does
			if e := log.Flush(); e != nil {
				err = e
			}
		}
	}), "ns")
	if err != nil {
		return err
	}
	if e := log.Flush(); e != nil {
		return e
	}
	p.set("wal.bytes_per_corr", float64(reg.Counter("wal_appended_bytes_total").Value())/probeCalls, "B")

	// One Sync after a flush interval's worth of paced traffic.
	burst := int(float64(p.tr.sent) / probeTicks * float64(walFlushEvery) / float64(p.r.sc.tickPeriod))
	ms, err2 := medianOf(9, func() (float64, error) {
		for i := 0; i < max(burst, 1); i++ {
			appendOne(i)
		}
		t0 := time.Now()
		e := log.Sync()
		return float64(time.Since(t0)) / float64(time.Millisecond), e
	})
	p.set("wal.sync_ms", ms, "ms")
	if err == nil {
		err = err2
	}
	return err
}

// fullServer stands up an in-process wire.Server wired the way kfserver
// -http -trace -wal-dir wires it, at pop10k, and times the periodic work
// of each optional layer: a checkpoint, a recovery, a health tick, a
// history tick.
func (p *prober) fullServer() error {
	dir, err := os.MkdirTemp(p.r.work, "probe-full-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := telemetry.New()
	journal := trace.NewJournal(trace.DefaultShards, trace.DefaultCapacity)
	journal.SetEnabled(true)
	rec := diag.NewRecorder(diag.Options{Registry: reg, Journal: journal})
	mon := health.NewMonitor(health.Config{WindowTicks: 60, Windows: 64, FastWindows: 1, SlowWindows: 15,
		ResolveAfter: 2, Registry: reg, Logger: discardLog, OnTransition: rec.OnTransition})
	rec.AttachHealth(mon)
	hist, err := history.NewStore(history.Config{Registry: reg,
		Detector: history.NewDetector(history.DetectorConfig{Registry: reg})})
	if err != nil {
		return err
	}
	rec.AttachHistory(hist)
	opts := wire.Options{Logger: discardLog, Metrics: reg, Trace: journal, Health: mon, Diag: rec, History: hist}
	srv, err := wire.NewDurableServer(opts, wire.Durability{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	if _, err := p.registerAll(srv); err != nil {
		return err
	}
	if err := p.applyFrames(srv, 0); err != nil {
		return err
	}
	ms, err := medianOf(3, func() (float64, error) {
		t0 := time.Now()
		err := srv.Checkpoint()
		return float64(time.Since(t0)) / float64(time.Millisecond), err
	})
	if err != nil {
		return err
	}
	p.set("wal.checkpoint_ms", ms, "ms")

	p.set("health.tick_us", perCall(probeCalls/100, func(int) { mon.Tick() })/1e3, "us")
	ms, _ = medianOf(5, func() (float64, error) {
		t0 := time.Now()
		hist.Tick()
		return float64(time.Since(t0)) / float64(time.Millisecond), nil
	})
	p.set("history.tick_ms", ms, "ms")
	p.set("history.series_dropped", reg.Gauge("history_series_dropped").Value(), "count")

	// Leave a tail behind the checkpoint, then recover the directory the
	// way a restarted kfserver does: checkpoint plus replay.
	if err := p.applyFrames(srv, 1); err != nil {
		return err
	}
	closed = true
	if err := srv.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	again, err := wire.NewDurableServer(wire.Options{Logger: discardLog, Metrics: telemetry.New(),
		Trace: trace.NewJournal(1, 1)}, wire.Durability{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		return err
	}
	p.set("wal.recovery_ms", float64(time.Since(t0))/float64(time.Millisecond), "ms")
	if got := again.RecoveryStats().CheckpointStreams; got != len(p.pop.streams) {
		err = fmt.Errorf("recovery probe restored %d streams, want %d", got, len(p.pop.streams))
	}
	if cerr := again.Close(); err == nil {
		err = cerr
	}
	return err
}

// recorders times the per-event feeds of the optional observability
// layers, each called the way the server's hot path calls it.
func (p *prober) recorders() error {
	f := freshness.NewRecorder(telemetry.New())
	p.set("freshness.record_ns", perCall(probeCalls, func(i int) {
		stamp := int64(i+1) * 1e6
		f.RecordE2E(freshness.E2ESeconds(stamp, stamp+500_000, 0), uint64(i+1), "c0-s0")
	}), "ns")

	n := len(p.pop.streams)
	rec := diag.NewRecorder(diag.Options{Registry: telemetry.New()})
	p.set("diag.observe_ns", perCall(probeCalls, func(i int) {
		rec.ObserveCorrection(p.pop.streams[i%n].id, 29)
	}), "ns")

	journal := trace.NewJournal(trace.DefaultShards, trace.DefaultCapacity)
	journal.SetEnabled(true)
	p.set("trace.record_ns", perCall(probeCalls, func(i int) {
		journal.Record(trace.Event{TraceID: uint64(i + 1), StreamID: p.pop.streams[i%n].id, Tick: int64(i),
			Stage: trace.StageApply, Outcome: trace.OutcomeApplied, Value: 1})
	}), "ns")
	return nil
}
