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

// TestStepToPathsEquivalent drives one message and query sequence into
// three servers holding the same stream: one with history enabled — an
// archive that marks the record on every message and predicts the ticks
// between — one with the watchdog armed, heard on the tick clock and
// scanned for silence on every tick, and a plain one. Only the messages
// move them: a query ahead predicts from the replica and writes nothing,
// so the record answers Value bit-identically before and after it. All
// three must give bit-equal answers wherever they are asked and end with
// equal counters, every filter stepped exactly the record's tick, and
// equal checkpoints; a fourth plain server queried on every tick must
// answer what the history server archived for that tick; history holds
// each settled tick once; and the per-tick scan asked for a resync exactly
// when the silence crossed each multiple of the deadline.
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
			if err := wd.SetWatchdog(id, deadline, "owner"); err != nil {
				t.Fatal(err)
			}
			trio := []*Server{plain, hist, wd}
			// scanTo runs the watchdog's scan on every tick up to through,
			// before anything arriving on tick through-1 lands — where
			// core.System's Advance runs it.
			var requests []int64
			scanned := int64(0)
			scanTo := func(through int64) {
				for ; scanned < through; scanned++ {
					for _, f := range wd.ScanSilent(scanned + 1) {
						if f.ID != id {
							t.Errorf("scan found %q", f.ID)
						}
						if f.Owner != nil {
							requests = append(requests, scanned+1)
						}
					}
				}
			}

			// wantRequests models the watchdog from the outside: heard is the
			// tick of the last applied message, reached the furthest tick
			// scanned since.
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
					e, b, err := every.QueryAt(id, int64(len(perTick)))
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
					scanTo(tick + 1)
					for _, s := range append(trio, every) {
						var applied bool
						var err error
						if s == wd {
							applied, _, err = s.Ingest(m, tick+1)
						} else {
							applied, _, err = s.Ingest(m, 0)
						}
						if err != nil || !applied {
							t.Fatalf("tick %d: ingest %v: applied %v, err %v", tick, m.Kind, applied, err)
						}
					}
					stepped(tick + 1)
					heard = tick
				}
				if m == nil || rng.Intn(2) == 0 {
					scanTo(tick + 1)
					var est [3][]float64
					var bound [3]float64
					for i, s := range trio {
						v0, b0, err := s.Value(id)
						if err != nil {
							t.Fatal(err)
						}
						if est[i], bound[i], err = s.QueryAt(id, tick); err != nil {
							t.Fatal(err)
						}
						v, b, err := s.Value(id)
						if err != nil || !bitEqual(v, v0) || b != b0 {
							t.Fatalf("tick %d: QueryAt moved the record: Value %v ± %v before, %v ± %v after (err %v)",
								tick, v0, b0, v, b, err)
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

			scanTo(reached)

			// Equal records, equal totals, equal replicas.
			regs := []*telemetry.Registry{plainReg, histReg, wdReg}
			var infos [3]StreamInfo
			var cps [3]any
			for i, s := range trio {
				info, err := s.Info(id, -1)
				if err != nil {
					t.Fatal(err)
				}
				// The watchdog's verdict and its count are the one intended difference.
				info.Stale, info.StaleEpisodes = false, 0
				infos[i] = info
				cps[i] = checkpointStates(t, s)
				var total int64
				for sh := range s.shards {
					total += regs[i].Counter("corrections_suppressed_total", "shard", fmt.Sprint(sh)).Value()
				}
				if total != info.Suppressed || info.Suppressed == 0 {
					t.Errorf("server %d: corrections_suppressed_total %d, record says %d", i, total, info.Suppressed)
				}
				sh, st, err := lock(s, id)
				if err != nil {
					t.Fatal(err)
				}
				sh.mu.Unlock()
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
			// The scan saw every tick of every silence.
			if len(wantRequests) == 0 || !reflect.DeepEqual(requests, wantRequests) {
				t.Errorf("resync requests at ticks %v, want %v", requests, wantRequests)
			}
		})
	}
}
