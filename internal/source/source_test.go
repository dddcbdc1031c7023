package source

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

func staticSpec() predictor.Spec { return predictor.Spec{Kind: predictor.KindStatic, Dim: 1} }

func collect(msgs *[]*netsim.Message) func(*netsim.Message) {
	return func(m *netsim.Message) { *msgs = append(*msgs, m) }
}

func TestNewValidation(t *testing.T) {
	send := func(*netsim.Message) {}
	cases := []Config{
		{StreamID: "", Spec: staticSpec(), Delta: 1},
		{StreamID: "s", Spec: staticSpec(), Delta: -1},
		{StreamID: "s", Spec: predictor.Spec{Kind: "bogus"}, Delta: 1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, send); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 1}, nil); err == nil {
		t.Error("nil send accepted")
	}
}

func TestFirstObservationAlwaysSent(t *testing.T) {
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 1}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	sent, err := s.Observe(0, []float64{100}) // far from initial 0 prediction
	if err != nil {
		t.Fatal(err)
	}
	if !sent || len(msgs) != 1 {
		t.Fatalf("first out-of-bound observation not sent (sent=%v, msgs=%d)", sent, len(msgs))
	}
	m := msgs[0]
	if m.Kind != netsim.KindCorrection || m.StreamID != "s" || m.Tick != 0 || m.Value[0] != 100 {
		t.Fatalf("message wrong: %+v", m)
	}
}

func TestSuppressionWithinDelta(t *testing.T) {
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 2}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache at 10.
	if _, err := s.Observe(0, []float64{10}); err != nil {
		t.Fatal(err)
	}
	// Values within ±2 of 10 must be suppressed.
	for i, v := range []float64{11, 9, 10.5, 8.1, 12} {
		sent, err := s.Observe(int64(i+1), []float64{v})
		if err != nil {
			t.Fatal(err)
		}
		if sent {
			t.Fatalf("value %v within δ=2 of cached 10 was sent", v)
		}
	}
	// A value outside δ must be sent.
	sent, err := s.Observe(6, []float64{12.5})
	if err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Fatal("value outside δ suppressed")
	}
	st := s.Stats()
	if st.Ticks != 7 || st.Sent != 2 || st.Suppressed != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxSuppressedDeviation > 2 {
		t.Fatalf("suppressed deviation %v exceeded δ", st.MaxSuppressedDeviation)
	}
	if got := st.SuppressionRatio(); math.Abs(got-5.0/7) > 1e-12 {
		t.Fatalf("suppression ratio %v", got)
	}
}

func TestZeroDeltaShipsEverything(t *testing.T) {
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 0}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, 1, 1, 2, 2}
	for i, v := range vals {
		// Repeated identical values have deviation 0 ≤ δ=0: suppressed.
		// Anything else ships. With static cache: first 1 ships, the two
		// repeats suppress, first 2 ships, repeat suppresses.
		if _, err := s.Observe(int64(i), []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Sent; got != 2 {
		t.Fatalf("sent %d, want 2 (exact-match suppression only)", got)
	}
}

func TestHeartbeatForcesCorrection(t *testing.T) {
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 100, HeartbeatEvery: 3}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := s.Observe(i, []float64{0}); err != nil {
			t.Fatal(err)
		}
	}
	// δ=100 means nothing would ship organically after the value settles
	// at 0 (prediction starts at 0, so even tick 0 suppresses). With
	// HeartbeatEvery=3, a correction fires on every 4th tick.
	st := s.Stats()
	if st.Heartbeats == 0 {
		t.Fatal("no heartbeats fired")
	}
	if st.Sent != st.Heartbeats {
		t.Fatalf("sent %d != heartbeats %d for in-bound stream", st.Sent, st.Heartbeats)
	}
	// Runs of suppressed ticks must never exceed HeartbeatEvery.
	run := int64(0)
	maxRun := int64(0)
	next := 0
	for i := int64(0); i < 10; i++ {
		if next < len(msgs) && msgs[next].Tick == i {
			next++
			run = 0
			continue
		}
		run++
		if run > maxRun {
			maxRun = run
		}
	}
	if maxRun > 3 {
		t.Fatalf("suppressed run %d exceeds heartbeat interval 3", maxRun)
	}
}

func TestObserveDimMismatch(t *testing.T) {
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 1}, func(*netsim.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(0, []float64{1, 2}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestSetDelta(t *testing.T) {
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 1}, func(*netsim.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetDelta(5); err != nil {
		t.Fatal(err)
	}
	if s.Delta() != 5 {
		t.Fatalf("delta = %v", s.Delta())
	}
	if err := s.SetDelta(-1); err == nil {
		t.Fatal("negative delta accepted")
	}
}

func TestNormDeviation(t *testing.T) {
	z := []float64{3, 4}
	pred := []float64{0, 0}
	if got := NormInf.Deviation(z, pred); got != 4 {
		t.Fatalf("Linf = %v, want 4", got)
	}
	if got := NormL2.Deviation(z, pred); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
	if NormInf.String() != "Linf" || NormL2.String() != "L2" {
		t.Fatal("norm strings wrong")
	}
}

func TestL2GateOn2DStream(t *testing.T) {
	var msgs []*netsim.Message
	spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 2}
	s, err := New(Config{StreamID: "gps", Spec: spec, Delta: 5, DeviationNorm: NormL2}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(0, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	// (3,3.9) is 4.92 away in L2 — suppressed; but Linf would also pass.
	sent, _ := s.Observe(1, []float64{3, 3.9})
	if sent {
		t.Fatal("point within L2 ball was sent")
	}
	// (4,4) is 5.66 away in L2 — must ship even though each component
	// deviates by only 4 < δ.
	sent, _ = s.Observe(2, []float64{4, 4})
	if !sent {
		t.Fatal("point outside L2 ball suppressed")
	}
}

func TestPredictionMatchesGateView(t *testing.T) {
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 1}, func(*netsim.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Observe(0, []float64{42}); err != nil {
		t.Fatal(err)
	}
	if got := s.Prediction()[0]; got != 42 {
		t.Fatalf("Prediction = %v, want 42", got)
	}
	if s.StreamID() != "s" {
		t.Fatal("StreamID wrong")
	}
}

// TestStatsConcurrentWithObserve reads Stats from monitoring goroutines
// while Observe runs — the racy-copy bug this guards against is only
// visible under -race.
func TestStatsConcurrentWithObserve(t *testing.T) {
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 0.5, HeartbeatEvery: 10, ResyncEvery: 3}, func(*netsim.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 5000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					st := s.Stats()
					if st.Sent+st.Suppressed > st.Ticks {
						t.Errorf("incoherent stats snapshot: %+v", st)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < ticks; i++ {
		if _, err := s.Observe(int64(i), []float64{math.Sin(float64(i) / 7)}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	st := s.Stats()
	if st.Ticks != ticks || st.Sent+st.Suppressed != ticks {
		t.Fatalf("final stats = %+v, want %d ticks fully accounted", st, ticks)
	}
	if st.MaxSuppressedDeviation > 0.5 {
		t.Fatalf("suppressed deviation %g exceeds delta", st.MaxSuppressedDeviation)
	}
}

// TestGateTracing checks every gate outcome lands in the journal with a
// deviation/δ pair, and that sent corrections carry the journal's trace
// ID in-band.
func TestGateTracing(t *testing.T) {
	j := trace.NewJournal(1, 64)
	j.SetEnabled(true)
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: staticSpec(), Delta: 2, Trace: j}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	seq := []float64{10, 11, 20} // sent, suppressed, sent
	for i, v := range seq {
		if _, err := s.Observe(int64(i), []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	evs := j.StreamEvents("s")
	if len(evs) != 3 {
		t.Fatalf("journal has %d gate events, want 3: %+v", len(evs), evs)
	}
	wantOutcomes := []trace.Outcome{trace.OutcomeSent, trace.OutcomeSuppressed, trace.OutcomeSent}
	for i, ev := range evs {
		if ev.Stage != trace.StageGate || ev.Outcome != wantOutcomes[i] || ev.Aux != 2 {
			t.Fatalf("event %d = %+v, want %v with δ=2", i, ev, wantOutcomes[i])
		}
	}
	if evs[1].TraceID != 0 {
		t.Fatalf("suppressed tick allocated trace id %d", evs[1].TraceID)
	}
	if len(msgs) != 2 || msgs[0].Trace == 0 || msgs[0].Trace != evs[0].TraceID || msgs[1].Trace != evs[2].TraceID {
		t.Fatalf("messages do not carry the journal trace ids: msgs=%+v evs=%+v", msgs, evs)
	}
	// The suppressed tick's deviation must be what the auditor needs.
	if evs[1].Value != 1 { // |11 - 10|
		t.Fatalf("suppressed deviation = %g, want 1", evs[1].Value)
	}
}

// The two Kalman specs of the deployed-path benchmark's population, and a
// bank over both.
var (
	specRW1 = predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.0025}}
	specCV2 = predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
	specBank = predictor.Spec{Kind: predictor.KindKalmanBank,
		Models: []predictor.ModelSpec{specRW1.Model, specCV2.Model}}
)

// TestObserveDisabledTraceZeroAlloc: with tracing off, a suppressed tick
// allocates nothing — the near-zero-overhead requirement.
func TestObserveDisabledTraceZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec predictor.Spec
	}{{"static", staticSpec()}, {"rw1", specRW1}, {"cv2", specCV2}, {"bank", specBank}} {
		t.Run(tc.name, func(t *testing.T) {
			j := trace.NewJournal(1, 8) // disabled
			s, err := New(Config{StreamID: "s", Spec: tc.spec, Delta: 100, Telemetry: telemetry.New(), Trace: j}, func(*netsim.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			z := []float64{1}
			var tick int64
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := s.Observe(tick, z); err != nil {
					t.Fatal(err)
				}
				tick++
			})
			if st := s.Stats(); st.Sent != 0 {
				t.Fatalf("measured ticks were not all suppressed: %+v", st)
			}
			if allocs != 0 {
				t.Errorf("suppressed tick with tracing disabled allocated %.1f times per op, want 0", allocs)
			}
		})
	}
}

// TestTicksCountsFailedCorrect: Ticks is derived from the outcomes, so a
// tick whose replica refuses the correction — neither sent nor
// suppressed — must still be counted.
func TestTicksCountsFailedCorrect(t *testing.T) {
	// Q = R = 1e-16: the first correction collapses P to about R, so the
	// next innovation covariance is below the 1e-14 singularity test and
	// the update is refused.
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1e-16, R: 1e-16}}
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: spec, Delta: 1, Telemetry: telemetry.New()}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	if sent, err := s.Observe(0, []float64{5}); err != nil || !sent {
		t.Fatalf("first tick: sent %v, err %v", sent, err)
	}
	if _, err := s.Observe(1, []float64{9}); err == nil {
		t.Fatal("a correction with a singular innovation covariance was accepted")
	}
	if st := s.Stats(); st.Ticks != 2 || st.Sent != 1 || st.Suppressed != 0 || len(msgs) != 1 {
		t.Fatalf("stats = %+v with %d messages, want 2 ticks, 1 sent, 0 suppressed", st, len(msgs))
	}
}

// TestRequestResyncRacingObserveNeverLost: a request that lands while
// Observe runs is answered by this tick or the next, never dropped. The
// racer's last request follows the final loop tick, so one more Observe
// must ship a resync, and it must leave nothing pending.
func TestRequestResyncRacingObserveNeverLost(t *testing.T) {
	var msgs []*netsim.Message
	s, err := New(Config{StreamID: "s", Spec: specRW1, Delta: 100, Telemetry: telemetry.New()}, collect(&msgs))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	requests := make(chan int64)
	go func() {
		var n int64
		for {
			select {
			case <-done:
				s.RequestResync()
				requests <- n + 1
				return
			default:
				s.RequestResync()
				n++
			}
		}
	}()
	z := []float64{1}
	for i := 0; i < 5000; i++ {
		if _, err := s.Observe(int64(i), z); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	n := <-requests
	msgs = msgs[:0]
	if sent, err := s.Observe(5000, z); err != nil || !sent || msgs[0].Kind != netsim.KindResync {
		t.Fatalf("tick after the racer: sent %v, err %v, messages %+v; want one KindResync", sent, err, msgs)
	}
	if s.resyncRequested.Load() {
		t.Fatal("a resync request is still pending after it was answered")
	}
	if sent, err := s.Observe(5001, z); err != nil || sent {
		t.Fatalf("tick with no request: sent %v, err %v; want suppressed", sent, err)
	}
	if st := s.Stats(); st.ResyncRequests != n || st.ForcedResyncs < 1 || st.ForcedResyncs > n {
		t.Fatalf("stats = %+v after %d requests", st, n)
	}
}

// TestTelemetryCardinalityIndependentOfPopulation is the source-side twin
// of the wire server's test of the same name: the registry holds totals,
// so N sources on one registry register the same series as one, and the
// totals are the sums of the per-source Stats.
func TestTelemetryCardinalityIndependentOfPopulation(t *testing.T) {
	var series [2]int
	for i, n := range []int{1, 500} {
		reg := telemetry.New()
		var sent, suppressed int64
		for j := 0; j < n; j++ {
			s, err := New(Config{StreamID: fmt.Sprintf("s%03d", j), Spec: staticSpec(), Delta: 1, Telemetry: reg},
				func(m *netsim.Message) { netsim.PutMessage(m) })
			if err != nil {
				t.Fatal(err)
			}
			for tick, z := range []float64{10, 10.5, 10.2} { // sent, suppressed, suppressed
				if _, err := s.Observe(int64(tick), []float64{z}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SetDelta(2); err != nil {
				t.Fatal(err)
			}
			sent += s.Stats().Sent
			suppressed += s.Stats().Suppressed
		}
		snap := reg.Snapshot()
		series[i] = len(snap)
		for _, smp := range snap {
			if strings.Contains(smp.Labels, "stream=") {
				t.Fatalf("%d sources: series %s%s carries a stream label", n, smp.Name, smp.Labels)
			}
		}
		if got := reg.Counter("corrections_sent_total").Value(); got != sent || sent != int64(n) {
			t.Fatalf("%d sources: corrections_sent_total = %d, Stats sum to %d, want %d", n, got, sent, n)
		}
		if got := reg.Counter("corrections_suppressed_total").Value(); got != suppressed || suppressed != 2*int64(n) {
			t.Fatalf("%d sources: corrections_suppressed_total = %d, Stats sum to %d, want %d", n, got, suppressed, 2*n)
		}
	}
	if series[0] != series[1] {
		t.Fatalf("registry holds %d series for 1 source and %d for 500, want equal", series[0], series[1])
	}
}
