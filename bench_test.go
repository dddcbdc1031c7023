package kalmanstream_test

// Benchmarks: one per experiment row in DESIGN.md's experiment index
// (regenerating each paper table/figure at reduced scale), plus
// micro-benchmarks for the hot paths. Full-scale experiment output is
// produced by `go run ./cmd/streamkf run all` and recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kalmanstream/internal/core"
	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/harness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/kalman"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/server/servertest"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wal"
	"kalmanstream/internal/wire"
)

// benchTicks keeps experiment benchmarks at a scale where one iteration
// is milliseconds-to-seconds; the shapes match the full 50k-tick runs.
const benchTicks = 4000

func benchExperiment(b *testing.B, id string) {
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Ticks: benchTicks, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Tracking regenerates E1 (per-method tracking at fixed δ).
func BenchmarkE1Tracking(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2MessagesVsDelta regenerates E2 (messages vs δ, synthetic).
func BenchmarkE2MessagesVsDelta(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3RealWorld regenerates E3 (messages vs δ, realistic traces).
func BenchmarkE3RealWorld(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4NoiseAdaptation regenerates E4 (noise robustness).
func BenchmarkE4NoiseAdaptation(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5MethodTable regenerates E5 (method × stream-class matrix).
func BenchmarkE5MethodTable(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6MovingObjects regenerates E6 (2-D trajectories, L2 gate).
func BenchmarkE6MovingObjects(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7AdaptiveQR regenerates E7 (adaptive noise estimation).
func BenchmarkE7AdaptiveQR(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8BudgetAllocation regenerates E8 (allocators under budget).
func BenchmarkE8BudgetAllocation(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9AggregateQueries regenerates E9 (composed query bounds).
func BenchmarkE9AggregateQueries(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10RegimeSwitch regenerates E10 (regime-change adaptation).
func BenchmarkE10RegimeSwitch(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11ModelBank regenerates E11 (multi-model bank ablation).
func BenchmarkE11ModelBank(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12ProbabilisticAnswers regenerates E12 (interval coverage).
func BenchmarkE12ProbabilisticAnswers(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13FaultTolerance regenerates E13 (loss and resync healing).
func BenchmarkE13FaultTolerance(b *testing.B) { benchExperiment(b, "E13") }

// --- micro-benchmarks: the per-tick costs everything above is built on ---

// BenchmarkKalmanPredictUpdate1D measures one predict+update cycle of the
// scalar random-walk filter — the minimum per-tick cost of a managed
// stream.
func BenchmarkKalmanPredictUpdate1D(b *testing.B) {
	f := kalman.MustFilter(kalman.RandomWalk(0.1, 1), []float64{0}, kalman.InitialCovariance(1, 1))
	z := []float64{1.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictN(1)
		if err := f.Update(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKalmanPredictUpdateCV measures one predict+update cycle of the
// 2-state/1-observation constant-velocity filter: the shape every fifth
// stream of the deployed-path benchmark's population (its cv2) runs, on
// its fixed-size kernel.
func BenchmarkKalmanPredictUpdateCV(b *testing.B) {
	f := kalman.MustFilter(kalman.ConstantVelocity(1, 0.05, 0.1),
		make([]float64, 2), kalman.InitialCovariance(2, 1))
	z := []float64{1.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictN(1)
		if err := f.Update(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKalmanPredictUpdate2D measures the 4-state/2-observation
// planar constant-velocity filter cycle (ConstantVelocity2D — not the
// deployed-path benchmark's cv2, which is the 2-state shape above). It
// has no kernel: this is the price of the generic mat path.
func BenchmarkKalmanPredictUpdate2D(b *testing.B) {
	f := kalman.MustFilter(kalman.ConstantVelocity2D(1, 0.1, 1),
		make([]float64, 4), kalman.InitialCovariance(4, 1))
	z := []float64{1.5, -2.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictN(1)
		if err := f.Update(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyAdvance is the server's ingest at population scale, where
// every correction first rolls a cold replica through the ticks its source
// suppressed: Ingest at +8 ticks round-robin over 10,000 registered
// streams, every fifth a constant-velocity one (the deployed-path
// benchmark's mix and suppression ratio). ns/op is one correction — shard
// lock, a 7-tick predict-only advance, the arrival tick's step and the
// Kalman update — with the stream's state out of cache, which no
// single-stream benchmark prices. heap-B/stream is what the population
// costs the server once every stream has its first correction: the live
// heap's growth over registering and correcting it, per stream.
func BenchmarkLazyAdvance(b *testing.B) {
	const streams = 10_000
	rw := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.0025}}
	cv := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%05d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv := server.New()
	m := netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}
	for i, id := range ids {
		spec := rw
		if i%5 == 4 {
			spec = cv
		}
		if err := srv.Register(id, spec, 0.5); err != nil {
			b.Fatal(err)
		}
		m.StreamID, m.Tick = id, 0
		if _, _, err := srv.Ingest(&m, 0); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perStream := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / streams
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StreamID, m.Tick = ids[i%streams], int64(i/streams)*8+7
		m.Value[0] = float64(i&15) * 0.25
		if _, _, err := srv.Ingest(&m, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perStream, "heap-B/stream")
}

// BenchmarkMessageEncodeDecode measures the wire codec round trip for a
// typical scalar correction into fresh storage each time: a new buffer, a
// new message.
func BenchmarkMessageEncodeDecode(b *testing.B) {
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "sensor-01", Tick: 123456, Value: []float64{42.5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := m.AppendEncode(make([]byte, 0, m.EncodedSize()))
		if err != nil {
			b.Fatal(err)
		}
		if err := netsim.DecodeInto(&netsim.Message{}, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageRoundTripPooled is the zero-alloc form of the codec
// round trip: encode into one reused buffer, decode into a warm message.
// The allocs/op column must read 0 (guarded by
// TestCorrectionRoundTripZeroAlloc).
func BenchmarkMessageRoundTripPooled(b *testing.B) {
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "sensor-01", Tick: 123456, Value: []float64{42.5}}
	dst := &netsim.Message{StreamID: "sensor-01", Value: make([]float64, 0, 4)}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = m.AppendEncode(buf[:0]); err != nil {
			b.Fatal(err)
		}
		if err := netsim.DecodeInto(dst, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolTickKalman measures the full per-tick pipeline cost —
// source gate + (occasional) correction + server answer — for the Kalman
// predictor, i.e. the system's sustainable per-stream tick rate.
func BenchmarkProtocolTickKalman(b *testing.B) {
	benchProtocolTick(b, predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}})
}

// BenchmarkProtocolTickStatic is the same pipeline with the static-cache
// baseline, isolating the predictor's share of the cost.
func BenchmarkProtocolTickStatic(b *testing.B) {
	benchProtocolTick(b, predictor.Spec{Kind: predictor.KindStatic, Dim: 1})
}

// observeTraceLen is the pre-drawn measurement trace a gate benchmark
// cycles through (a power of two, so the index is a mask).
const observeTraceLen = 1 << 16

// observeTrace pre-draws a seeded measurement trace: a random walk, or a
// noisy sinusoid for the constant-velocity gate.
func observeTrace(b *testing.B, sine bool) []float64 {
	b.Helper()
	var g stream.Stream = stream.NewRandomWalk(1, 0, 0.5, 0.05, observeTraceLen)
	if sine {
		g = stream.NewSine(1, 0, 10, 275, 0, 0.1, observeTraceLen)
	}
	z := make([]float64, observeTraceLen)
	for i := range z {
		p, ok := g.Next()
		if !ok {
			b.Fatal("stream exhausted")
		}
		z[i] = p.Value[0]
	}
	return z
}

// observeGate builds a gate configured as the deployed-path benchmark's:
// heartbeats every 200 ticks, tracing off, messages recycled.
func observeGate(b *testing.B, id string, spec predictor.Spec, delta float64, reg *telemetry.Registry) *source.Source {
	b.Helper()
	src, err := source.New(source.Config{StreamID: id, Spec: spec, Delta: delta,
		HeartbeatEvery: 200, Telemetry: reg, Trace: trace.NewJournal(1, 1)},
		func(m *netsim.Message) { netsim.PutMessage(m) })
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkSourceObserve prices one precision-gate tick — replica step,
// H·x, the deviation and the decision — on a pre-drawn seeded trace, so
// only Observe is timed: the shape of the deployed-path benchmark's
// source.observe_ns probe, for its population's two Kalman specs. The
// shared-registry case runs GOMAXPROCS rw1 gates on one registry, as
// `streamkf run -parallel` and a multi-gate source do, so every counter a
// suppressed tick writes is contended.
func BenchmarkSourceObserve(b *testing.B) {
	rw1 := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.0025}}
	cv2 := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	for _, tc := range []struct {
		name  string
		spec  predictor.Spec
		delta float64
		sine  bool
	}{{"rw1", rw1, 1, false}, {"cv2", cv2, 0.5, true}} {
		b.Run(tc.name, func(b *testing.B) {
			z := observeTrace(b, tc.sine)
			src := observeGate(b, "s", tc.spec, tc.delta, telemetry.New())
			v := make([]float64, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v[0] = z[i&(observeTraceLen-1)]
				if _, err := src.Observe(int64(i), v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(src.Stats().Sent)/float64(b.N), "msgs/tick")
		})
	}
	b.Run("shared-registry", func(b *testing.B) {
		z := observeTrace(b, false)
		reg := telemetry.New()
		gates := make([]*source.Source, runtime.GOMAXPROCS(0))
		for i := range gates {
			gates[i] = observeGate(b, fmt.Sprintf("s%d", i), rw1, 1, reg)
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			src := gates[next.Add(1)-1]
			v := make([]float64, 1)
			for i := 0; pb.Next(); i++ {
				v[0] = z[i&(observeTraceLen-1)]
				if _, err := src.Observe(int64(i), v); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// benchMonitor builds the SLO monitor wired into the scale benchmarks
// and the history store whose windowTicks-wide tier it reads: a counter,
// a gauge and a latency histogram under one SLO each — the same shape
// kfserver configures — so the scale numbers include the cost of health
// monitoring, and the micro-benchmarks below price its tick and snapshot
// paths in isolation. The monitor is unbound: whatever ticks the pair
// binds it.
func benchMonitor(b *testing.B, windowTicks int) (*health.Monitor, *history.Store, *telemetry.Registry) {
	b.Helper()
	reg := telemetry.New()
	mon := health.NewMonitor(health.Config{
		WindowTicks: windowTicks, Windows: 64,
		FastWindows: 2, SlowWindows: 8, ResolveAfter: 2,
		Registry: reg,
		Logger:   slog.New(slog.DiscardHandler),
	})
	tiers := []history.Tier{{Every: 1, Len: 120}}
	if windowTicks > 1 {
		tiers = append(tiers, history.Tier{Every: int64(windowTicks), Len: 64})
	}
	st, err := history.NewStore(history.Config{Registry: reg, Tiers: tiers})
	if err != nil {
		b.Fatal(err)
	}
	reg.Counter("bench_bad_total")
	total := reg.Counter("bench_total")
	reg.Gauge("bench_stale")
	hist := reg.Histogram("bench_latency", telemetry.LatencyBuckets)
	for _, err := range []error{
		mon.RatioSLO("error-ratio", "bench_bad_total", "bench_total", 0.01, health.Thresholds{}),
		mon.GaugeSLO("staleness", "bench_stale", 0, health.Thresholds{}),
		mon.LatencySLO("latency-p99", "bench_latency", 0.99, 1e-2, health.Thresholds{}),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	total.Add(1)
	hist.Observe(1e-3)
	return mon, st, reg
}

// boundMonitor is benchMonitor with the monitor bound to its store, for
// the benchmarks that drive the pair themselves.
func boundMonitor(b *testing.B, windowTicks int) (*health.Monitor, *history.Store) {
	mon, st, _ := benchMonitor(b, windowTicks)
	if err := mon.Bind(st); err != nil {
		b.Fatal(err)
	}
	return mon, st
}

// BenchmarkMonitorTick prices one step of the driver every composition
// runs: the history store's tick, then the monitor's, which evaluates
// every SLO when the 100-tick tier closes a window. (Before PR 25 it
// priced the monitor's own rings alone, so its ns/op in BENCH_PR16.json
// is a different quantity.) The allocs/op column must read 0 (guarded by
// TestMonitorTickZeroAlloc).
func BenchmarkMonitorTick(b *testing.B) {
	mon, st := boundMonitor(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Tick()
		mon.Tick()
	}
}

// BenchmarkWindowSnapshot prices the /debug/health read path: a full
// Snapshot over a tier populated with closed windows.
func BenchmarkWindowSnapshot(b *testing.B) {
	mon, st := boundMonitor(b, 1)
	for i := 0; i < 128; i++ {
		st.Tick()
		mon.Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mon.Snapshot()
	}
}

// BenchmarkTopKObserve prices a sketch feed that hits: a TryObserve on
// a resident stream ID (TryLock, map hit, in-place heap sift), which is
// all a population of at most K distinct IDs ever does. It says nothing
// about a larger one — BenchmarkTopKObserveChurn prices the miss. Must
// stay at 0 allocs/op.
func BenchmarkTopKObserve(b *testing.B) {
	tk := diag.NewTopK(128)
	ids := make([]string, 128)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%03d", i)
		tk.Observe(ids[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.TryObserve(ids[i&127], 1)
	}
}

// BenchmarkTopKObserveChurn prices a sketch feed that misses: 10,000
// IDs in rotation through K = 128, so every TryObserve evicts the
// minimum (map delete, map insert, a sift down the whole heap). This is
// what each correction paid at population scale while corrections fed
// the sketches, and what each δ violation and stale mark paid while those
// were pushed too, by a fault that touched more than K streams.
func BenchmarkTopKObserveChurn(b *testing.B) {
	tk := diag.NewTopK(128)
	ids := make([]string, 10_000)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.TryObserve(ids[i%len(ids)], 1)
	}
}

// BenchmarkWireIngestManyStreams is the deployed server's ingest path
// at population scale with the flight recorder armed: two goroutines,
// as two connections' handlers would, each applying 64-record coalesced
// frames over its half of 10,000 streams. ns/op is per correction
// (encode, decode, shard lock, lazy advance, Kalman update — and
// whatever arming the recorder adds, which must be nothing: the
// single-stream benchmarks above it could not see a per-correction feed
// that is cheap on a resident ID and contended, evicting and lossy at
// 10,000). The frames are the in-process id form ApplyBatch takes, and
// every record changes stream, so decoding allocates its id string: 1
// alloc/op (8 B). A connection's handle-form batch allocates nothing
// (TestBatchDispatchZeroAlloc).
func BenchmarkWireIngestManyStreams(b *testing.B) {
	const (
		streams  = 10_000
		workers  = 2
		perFrame = 64
		own      = streams / workers
	)
	reg := telemetry.New()
	rec := diag.NewRecorder(diag.Options{Registry: reg})
	srv := wire.NewServerWith(wire.Options{
		Metrics: reg,
		Logger:  slog.New(slog.DiscardHandler),
		Diag:    rec,
	})
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.1, R: 0.1}}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d-s%04d", i%workers, i/workers)
		if err := srv.Register(wire.RegisterPayload{ID: ids[i], Spec: spec, Delta: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w == 0 {
			n += b.N % workers
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch netsim.Message
			frame := make([]byte, 0, perFrame*40)
			m := netsim.Message{Kind: netsim.KindCorrection, Value: make([]float64, 1)}
			for sent := 0; sent < n; {
				frame = frame[:0]
				for r := 0; r < perFrame && sent < n; r, sent = r+1, sent+1 {
					// One pass over the worker's streams per tick.
					m.StreamID, m.Tick = ids[w+workers*(sent%own)], int64(sent/own)
					m.Value[0] = float64(sent&15) * 0.25
					frame, _ = m.AppendEncode(frame)
				}
				if _, err := srv.ApplyBatch(frame, &scratch); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if dropped := rec.Dropped(); dropped != 0 {
		b.Fatalf("%d attribution events dropped on the ingest path", dropped)
	}
	var attributed int64
	for _, row := range rec.Top(streams)[diag.SketchCorrections] {
		attributed += row.Count
	}
	if attributed != int64(b.N) {
		b.Fatalf("corrections table accounts for %d of %d corrections", attributed, b.N)
	}
}

// BenchmarkWireCoalesced sweeps the correction write ring over a real
// TCP connection: batch=1 is a client that never enabled coalescing, a
// ring of one that ships one frame per correction; larger batches coalesce that many corrections per FrameMessageBatch.
// ns/op is the full end-to-end cost per correction (client encode +
// framing + syscalls + server decode + replica apply); corr/flush
// confirms the ring actually fills. The batch=16/32 rows against
// batch=1 are the headline wire-throughput claim, and 1e9/ns·tickrate
// sizes max streams per node (see README).
func BenchmarkWireCoalesced(b *testing.B) {
	for _, batch := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchWireCoalesced(b, batch)
		})
	}
}

func benchWireCoalesced(b *testing.B, batch int) {
	reg := telemetry.New()
	srv := wire.NewServerWith(wire.Options{
		Metrics: reg,
		Logger:  slog.New(slog.DiscardHandler),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	defer func() {
		l.Close()
		<-done
	}()
	c, err := wire.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if batch > 1 {
		c.EnableCoalescing(wire.CoalesceConfig{MaxCorrections: batch, MaxBytes: 1 << 20})
	}
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.1, R: 0.1}}
	if err := c.Register("s", spec, 0.5); err != nil {
		b.Fatal(err)
	}
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Value: make([]float64, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick = int64(i + 1)
		m.Value[0] = float64(i&15) * 0.25
		if err := c.SendCorrection(m); err != nil {
			b.Fatal(err)
		}
	}
	// The query is the sync point: it flushes the ring and round-trips,
	// so the timed region covers every server-side apply.
	if _, err := c.Query("s", int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if flushes := reg.Counter("wire_frames_coalesced_total").Value(); flushes > 0 {
		sum := reg.Histogram("wire_corrections_per_frame", telemetry.BatchSizeBuckets).Sum()
		b.ReportMetric(sum/float64(flushes), "corr/flush")
	}
}

// BenchmarkSystemScale1000Streams measures one full system tick —
// Advance plus an Observe on each of 1000 Kalman-managed streams — the
// number that sizes a deployment.
func BenchmarkSystemScale1000Streams(b *testing.B) {
	const nStreams = 1000
	mon, st, reg := benchMonitor(b, 100)
	sys, err := core.NewSystem(core.SystemConfig{Health: mon, TelemetryHistory: st, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	handles := make([]*core.StreamHandle, nStreams)
	gens := make([]stream.Stream, nStreams)
	for i := 0; i < nStreams; i++ {
		h, err := sys.Attach(core.StreamConfig{
			ID:        fmt.Sprintf("s%04d", i),
			Predictor: core.KalmanConstantVelocity(0.05, 0.1),
			Delta:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = h
		gens[i] = stream.NewRandomWalk(int64(i), 0, 0.5, 0.05, int64(b.N)+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Advance(); err != nil {
			b.Fatal(err)
		}
		for j, h := range handles {
			p, ok := gens[j].Next()
			if !ok {
				b.Fatal("stream exhausted")
			}
			if _, err := h.Observe(p.Value); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.TotalMessages())/float64(b.N)/nStreams, "msgs/stream-tick")
}

func benchProtocolTick(b *testing.B, spec predictor.Spec) {
	srv := servertest.New()
	if err := srv.Register("s", spec, 1); err != nil {
		b.Fatal(err)
	}
	link := netsim.NewLink(func(m *netsim.Message) {
		if err := srv.Apply(m); err != nil {
			b.Fatal(err)
		}
	}, netsim.LinkConfig{})
	src, err := source.New(source.Config{StreamID: "s", Spec: spec, Delta: 1}, link.Send)
	if err != nil {
		b.Fatal(err)
	}
	gen := stream.NewRandomWalk(1, 0, 0.5, 0.05, int64(b.N)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := gen.Next()
		if !ok {
			b.Fatal("stream exhausted")
		}
		srv.Tick()
		if _, err := src.Observe(p.Tick, p.Value); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(src.Stats().Sent)/float64(b.N), "msgs/tick")
}

// BenchmarkHistoryRecord prices the telemetry-history record path: one
// Tick diffing a registry populated like a busy node (100 streams'
// labeled counters plus gauges and a latency histogram) into the
// multi-resolution rings, with the anomaly detector armed. This runs
// once per scrape interval in production and must stay at 0 allocs/op
// in steady state (TestHistoryRecordZeroAlloc asserts exactly that).
func BenchmarkHistoryRecord(b *testing.B) {
	reg := telemetry.New()
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("s-%03d", i)
		reg.Counter("messages_sent_total", "stream", id).Add(int64(i))
		reg.Gauge("stream_stale", "stream", id).Set(0)
	}
	h := reg.Histogram("frame_handle_seconds", telemetry.LatencyBuckets)
	det := history.NewDetector(history.DetectorConfig{Registry: reg})
	st, err := history.NewStore(history.Config{Registry: reg, Detector: det})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ { // fill accumulators and warm the scratch
		st.Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
		st.Tick()
	}
}

// BenchmarkLatencyRecord is the freshness hot path: skew-correcting one
// origin stamp and folding the gate→apply span into the exemplar-bearing
// latency histogram, exactly as the server's apply path does for every
// stamped correction. Exemplar retention is sampled (first landing and
// every 64th count per bucket), so the steady-state cost must stay a
// couple of atomics over a plain histogram observe, with allocs/op
// amortizing to ~0.
func BenchmarkLatencyRecord(b *testing.B) {
	f := freshness.NewRecorder(telemetry.New())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stamp := int64(i+1) * 1e6
		f.RecordE2E(freshness.E2ESeconds(stamp, stamp+500_000, 0), uint64(i+1), "bench-1")
	}
}

// BenchmarkWALAppend is the durability hot path: framing one applied
// correction into the write-ahead log's group-commit buffer, exactly as
// the server's apply hook calls it under the shard lock. Steady state
// must stay at 0 allocs/op — an allocating append would put GC pressure
// on every correction the server applies. The periodic Flush inside the
// loop is the group-commit drain; it keeps the buffer at its warm size
// so the measurement reflects the long-running server, not an
// ever-growing buffer.
func BenchmarkWALAppend(b *testing.B) {
	log, err := wal.Open(wal.Options{
		Dir:      b.TempDir(),
		Registry: telemetry.New(),
		Logger:   slog.New(slog.DiscardHandler),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "bench-stream", Value: make([]float64, 1)}
	for i := 0; i < 4096; i++ { // warm the buffer to its steady-state size
		m.Tick = int64(i)
		if err := log.AppendMessage(m.Tick, m); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick = int64(4096 + i)
		m.Value[0] = float64(i&15) * 0.25
		if err := log.AppendMessage(m.Tick, m); err != nil {
			b.Fatal(err)
		}
		if i&4095 == 4095 {
			if err := log.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRecoveryReplay measures restart cost: open a directory
// holding 10k durable correction records and replay them all (CRC
// check + netsim decode per record), the work a crashed server does
// before it can accept its first connection. ns/op / 10000 is the
// per-record replay cost; recovery time scales with the checkpoint
// interval, not log lifetime, because checkpoints prune the prefix.
func BenchmarkRecoveryReplay(b *testing.B) {
	const records = 10_000
	dir := b.TempDir()
	log, err := wal.Open(wal.Options{
		Dir:      dir,
		Registry: telemetry.New(),
		Logger:   slog.New(slog.DiscardHandler),
	})
	if err != nil {
		b.Fatal(err)
	}
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "bench-stream", Value: make([]float64, 1)}
	for i := 0; i < records; i++ {
		m.Tick = int64(i)
		m.Value[0] = float64(i&15) * 0.25
		if err := log.AppendMessage(m.Tick, m); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	var scratch netsim.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := wal.Open(wal.Options{Dir: dir, Registry: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
		if err != nil {
			b.Fatal(err)
		}
		var replayed int
		_, err = l.Restore(func(typ wal.RecordType, tick int64, payload []byte) error {
			if typ == wal.RecMessage {
				if derr := netsim.DecodeInto(&scratch, payload); derr != nil {
					return derr
				}
			}
			replayed++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if replayed != records {
			b.Fatalf("replayed %d records, want %d", replayed, records)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(records, "records/op")
}

// checkpointedNode returns a durable node over dir holding n
// constant-velocity Kalman streams, each with a correction applied.
func checkpointedNode(b *testing.B, dir string, n int) *core.Node {
	b.Helper()
	node, err := core.NewNode(core.NodeConfig{Telemetry: telemetry.New(), Logger: slog.New(slog.DiscardHandler),
		Clock: func() int64 { return 0 }, WALDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	spec := core.KalmanConstantVelocity(0.05, 0.1)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("stream-%05d", i)
		if _, err := node.Server().Adopt(id, spec, 0.5, nil, 0); err != nil {
			b.Fatal(err)
		}
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: 3, Value: []float64{float64(i)}}
		if _, _, err := node.Server().Ingest(m, 0); err != nil {
			b.Fatal(err)
		}
	}
	return node
}

// BenchmarkCheckpoint measures one periodic checkpoint of a durable node
// holding 10,000 constant-velocity Kalman streams, each with a correction
// applied: the cut under every shard's read lock, the log sync, the
// streamed encode, fsync, rename and prune. B/op and allocs/op are the
// point — the cut and the encode reuse the log's buffers, so neither
// grows with the population.
func BenchmarkCheckpoint(b *testing.B) {
	n := checkpointedNode(b, b.TempDir(), 10_000)
	defer n.Close()
	if err := n.Checkpoint(); err != nil { // grow the reused buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestart measures a durable node's restart from a checkpoint of
// 10,000 and 100,000 constant-velocity Kalman streams: open the log,
// check the checkpoint whole, replay its register and state records into
// a fresh server. The 100,000 case is skipped under -short.
func BenchmarkRestart(b *testing.B) {
	for _, streams := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			if testing.Short() && streams > 10_000 {
				b.Skip("100,000 streams under -short")
			}
			dir := b.TempDir()
			n := checkpointedNode(b, dir, streams)
			if err := n.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if err := n.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := core.NewNode(core.NodeConfig{Telemetry: telemetry.New(), Logger: slog.New(slog.DiscardHandler),
					Clock: func() int64 { return 0 }, WALDir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if got := re.RecoveryStats().CheckpointStreams; got != streams {
					b.Fatalf("restored %d streams, want %d", got, streams)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
			cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
			if info, err := os.Stat(cks[0]); err == nil {
				b.ReportMetric(float64(info.Size())/float64(streams), "disk-B/stream")
			}
		})
	}
}
