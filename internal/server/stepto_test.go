package server

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
)

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStepToPathsEquivalent drives the two forms of stepTo with one
// message and query sequence. Three servers hold the same stream: one with
// history enabled and one with the tick watchdog armed — each has a
// consumer for every intermediate tick, so both advance one tick at a
// time — and a plain one that advances in a single StepN call. All three
// must give bit-equal answers wherever they are asked and end with equal
// counters, equal replica tick counts and equal checkpoints; a fourth
// plain server queried on every tick must answer what the history server
// archived for that tick; and the per-tick consumers must have seen every
// tick: history holds each settled tick once, the watchdog asked for a
// resync exactly when the silence crossed each multiple of its deadline.
func TestStepToPathsEquivalent(t *testing.T) {
	const (
		id       = "s"
		deadline = 6
		lastTick = 900
	)
	specs := map[string]predictor.Spec{
		"cv2":  kalmanSpec(),
		"rw1":  {Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.0025}},
		"holt": {Kind: predictor.KindHolt, Dim: 1, Alpha: 0.5, Beta: 0.2},
		"bank": {Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
			{Kind: predictor.ModelRandomWalk, Q: 0.5, R: 0.1},
			{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1},
		}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			newServer := func() (*Server, *telemetry.Registry) {
				s, reg := New(), telemetry.New()
				s.SetTelemetry(reg)
				if err := s.Register(id, spec, 0.5); err != nil {
					t.Fatal(err)
				}
				return s, reg
			}
			plain, plainReg := newServer()
			hist, histReg := newServer()
			wd, wdReg := newServer()
			every, _ := newServer()
			if err := hist.EnableHistory(id, lastTick+2); err != nil {
				t.Fatal(err)
			}
			var requests []int64
			err := wd.SetWatchdog(id, deadline, func(m *netsim.Message) {
				if m.Kind != netsim.KindResyncRequest || m.StreamID != id {
					t.Errorf("watchdog pushed %v for %q", m.Kind, m.StreamID)
				}
				requests = append(requests, m.Tick)
			})
			if err != nil {
				t.Fatal(err)
			}
			trio := []*Server{plain, hist, wd}

			// wantRequests models the watchdog from the outside: heard is the
			// tick of the last applied message, reached the furthest tick the
			// stream has been stepped to since.
			var wantRequests []int64
			heard, reached := int64(-1), int64(0)
			stepped := func(to int64) {
				for tick := reached + 1; tick <= to; tick++ {
					if silent := tick - 1 - heard; silent > deadline && (silent-1)%deadline == 0 {
						wantRequests = append(wantRequests, tick)
					}
				}
				reached = max(reached, to)
			}

			rng := rand.New(rand.NewSource(16))
			truth := 0.0
			var perTick [][]float64 // every's answer at each tick, settled
			var perTickBound []float64
			// The reference is asked on every tick, in order, after what
			// arrives on that tick and before anything later does.
			askEvery := func(through int64) {
				for int64(len(perTick)) <= through {
					e, b, _, _, err := every.QueryAt(id, int64(len(perTick)))
					if err != nil {
						t.Fatal(err)
					}
					perTick, perTickBound = append(perTick, e), append(perTickBound, b)
				}
			}
			for tick := int64(0); tick <= lastTick; {
				askEvery(tick - 1) // the silent ticks before this one
				// The message, if any, that arrives at this tick.
				var m *netsim.Message
				switch op := rng.Intn(10); {
				case op < 6:
					truth += rng.NormFloat64()
					m = &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{truth}}
				case op < 7:
					m = &netsim.Message{Kind: netsim.KindHeartbeat, StreamID: id, Tick: tick}
				case op < 8:
					m = &netsim.Message{Kind: netsim.KindResync, StreamID: id, Tick: tick, Value: resyncValue(t, spec, truth)}
				}
				if m != nil {
					for _, s := range append(trio, every) {
						if applied, _, err := s.Ingest(m, 0); err != nil || !applied {
							t.Fatalf("tick %d: ingest %v: applied %v, err %v", tick, m.Kind, applied, err)
						}
					}
					stepped(tick + 1)
					heard = tick
				}
				if m == nil || rng.Intn(2) == 0 {
					var est [3][]float64
					var bound [3]float64
					for i, s := range trio {
						var err error
						if est[i], bound[i], _, _, err = s.QueryAt(id, tick); err != nil {
							t.Fatal(err)
						}
						v, b, err := s.Value(id)
						if err != nil || !bitEqual(v, est[i]) || b != bound[i] {
							t.Fatalf("tick %d: Value %v ± %v after QueryAt %v ± %v (err %v)", tick, v, b, est[i], bound[i], err)
						}
					}
					stepped(tick + 1)
					for i := 1; i < 3; i++ {
						if !bitEqual(est[0], est[i]) || bound[0] != bound[i] {
							t.Fatalf("tick %d: plain answers %v ± %v, per-tick path %d answers %v ± %v",
								tick, est[0], bound[0], i, est[i], bound[i])
						}
					}
				}
				askEvery(tick) // this tick, its message settled
				tick += []int64{1, 1, 2, 3, 8, 25, 200}[rng.Intn(7)]
			}

			// Equal records, equal totals, equal replicas.
			regs := []*telemetry.Registry{plainReg, histReg, wdReg}
			var infos [3]StreamInfo
			var cps [3]any
			for i, s := range trio {
				info, err := s.Info(id)
				if err != nil {
					t.Fatal(err)
				}
				info.Stale = false // the watchdog's verdict is the one intended difference
				infos[i] = info
				cps[i] = checkpointStates(t, s)
				var total int64
				for sh := 0; sh < s.NumShards(); sh++ {
					total += regs[i].Counter("corrections_suppressed_total", "shard", fmt.Sprint(sh)).Value()
				}
				if total != info.Suppressed || info.Suppressed == 0 {
					t.Errorf("server %d: corrections_suppressed_total %d, record says %d", i, total, info.Suppressed)
				}
				sh, st, err := s.get(id)
				if err != nil {
					t.Fatal(err)
				}
				sh.mu.RUnlock()
				if k, ok := st.replica.(*predictor.Kalman); ok && int64(k.Filter().Ticks()) != info.Tick {
					t.Errorf("server %d: filter stepped %d times, stream is at tick %d", i, k.Filter().Ticks(), info.Tick)
				}
			}
			for i := 1; i < 3; i++ {
				if !reflect.DeepEqual(infos[0], infos[i]) {
					t.Errorf("plain record %+v\nper-tick path %d record %+v", infos[0], i, infos[i])
				}
				if !reflect.DeepEqual(cps[0], cps[i]) {
					t.Errorf("plain checkpoint %+v\nper-tick path %d checkpoint %+v", cps[0], i, cps[i])
				}
			}

			// History saw every settled tick, and each is what a client asking
			// on that tick was told.
			n, err := hist.HistoryLen(id)
			if err != nil || int64(n) != infos[1].Tick-1 {
				t.Fatalf("history holds %d ticks (err %v), stream is at tick %d", n, err, infos[1].Tick)
			}
			for tick := 0; tick < n; tick++ {
				e, err := hist.HistoryAt(id, int64(tick))
				if err != nil {
					t.Fatal(err)
				}
				if !bitEqual(e.Estimate, perTick[tick]) || e.Bound != perTickBound[tick] {
					t.Fatalf("tick %d: archived %v ± %v, asked-every-tick server answered %v ± %v",
						tick, e.Estimate, e.Bound, perTick[tick], perTickBound[tick])
				}
			}
			// The watchdog saw every tick of every silence.
			if len(wantRequests) == 0 || !reflect.DeepEqual(requests, wantRequests) {
				t.Errorf("resync requests at ticks %v, want %v", requests, wantRequests)
			}
		})
	}
}
