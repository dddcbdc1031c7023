package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// heartbeatEvery forces a correction after this many suppressed ticks, so
// a stream the gate silences for a long stretch never trips a watchdog.
const heartbeatEvery = 200

// streamDef is one stream of the population.
type streamDef struct {
	id    string
	conn  int
	kind  string // "rw1" or "cv2"
	spec  predictor.Spec
	delta float64
}

var (
	// rw1: scalar random-walk Kalman, matched to its generator's step and
	// noise variances. The server's 1×1 fast path carries these.
	specRW1 = predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.25, R: 0.0025}}
	// cv2: two-state constant-velocity Kalman on a noisy sinusoid. These
	// take the generic mat path.
	specCV2 = predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}}
)

// population is the fixed set of streams every workload registers:
// streams split evenly over conns connections, ids c<conn>-s<index>,
// every fifth one cv2 and the rest rw1.
type population struct {
	streams []streamDef
	conns   int
	perConn int
}

func newPopulation(streams, conns int) *population {
	p := &population{conns: conns, perConn: streams / conns}
	for c := 0; c < conns; c++ {
		for i := 0; i < p.perConn; i++ {
			d := streamDef{id: fmt.Sprintf("c%d-s%d", c, i), conn: c, kind: "rw1", spec: specRW1, delta: 1}
			if i%5 == 4 {
				d.kind, d.spec, d.delta = "cv2", specCV2, 0.5
			}
			p.streams = append(p.streams, d)
		}
	}
	return p
}

// owned returns the index range [lo, hi) of connection c's streams.
func (p *population) owned(c int) (lo, hi int) { return c * p.perConn, (c + 1) * p.perConn }

// generator builds the measurement source for stream i. Every parameter
// derives from the run seed, so one seed is one set of inputs.
func (p *population) generator(seed int64, i int, ticks int) stream.Stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	streamSeed := rng.Int63()
	var g stream.Stream
	if p.streams[i].kind == "cv2" {
		amplitude := 5 + 10*rng.Float64()
		period := 150 + 250*rng.Float64()
		phase := 2 * math.Pi * rng.Float64()
		g = stream.NewSine(streamSeed, 0, amplitude, period, phase, 0.1, int64(ticks))
	} else {
		g = stream.NewRandomWalk(streamSeed, 0, 0.5, 0.05, int64(ticks))
	}
	if r, ok := g.(stream.Reusable); ok {
		r.ReuseBuffers()
	}
	return g
}

// record is one correction a gate shipped while the trace was generated:
// 16 bytes, so replaying costs the load generator a copy and an encode,
// far less than the server spends applying it.
type record struct {
	stream uint32 // index into population.streams
	tick   uint32
	value  float64
}

// queryRef names one planned query: the stream and tick it reads and,
// on an open loop, when it is due (from the connection's origin).
type queryRef struct {
	stream uint32
	tick   uint32
	due    time.Duration
}

// truthTable holds the true measurement at every (stream, tick) a query
// is planned to land on — what the checker holds each answer against.
type truthTable struct {
	ticks [][]uint32 // per stream, ascending, distinct
	z     [][]float64
}

func newTruthTable(streams int) *truthTable {
	return &truthTable{ticks: make([][]uint32, streams), z: make([][]float64, streams)}
}

func (t *truthTable) want(q queryRef) { t.ticks[q.stream] = append(t.ticks[q.stream], q.tick) }

// seal sorts and dedupes the wanted ticks and sizes the value slots.
func (t *truthTable) seal() {
	for i, tk := range t.ticks {
		sort.Slice(tk, func(a, b int) bool { return tk[a] < tk[b] })
		out := tk[:0]
		for j, v := range tk {
			if j == 0 || v != tk[j-1] {
				out = append(out, v)
			}
		}
		t.ticks[i] = out
		t.z[i] = make([]float64, len(out))
	}
}

func (t *truthTable) slot(streamIdx int, tick uint32) (int, bool) {
	tk := t.ticks[streamIdx]
	j := sort.Search(len(tk), func(j int) bool { return tk[j] >= tick })
	return j, j < len(tk) && tk[j] == tick
}

func (t *truthTable) lookup(streamIdx int, tick uint32) (float64, bool) {
	j, ok := t.slot(streamIdx, tick)
	if !ok {
		return 0, false
	}
	return t.z[streamIdx][j], true
}

// genTrace is everything a timed phase replays: per connection, the
// corrections real precision gates shipped over `ticks` ticks, in tick
// order. (Generating it also fills the truth table for the planned queries.)
type genTrace struct {
	pop   *population
	ticks int
	// recs[c] is connection c's corrections sorted by tick; tick t's are
	// recs[c][start[c][t]:start[c][t+1]].
	recs  [][]record
	start [][]int32
	// Gate decisions over the whole trace: useful outcomes ÷ attempts is
	// the protocol's message rate, published as source.msgs_per_tick.
	attempts, sent int64
}

func (g *genTrace) tickRecords(c, t int) []record {
	return g.recs[c][g.start[c][t]:g.start[c][t+1]]
}

// corrections counts connection c's corrections in ticks [0, upto).
func (g *genTrace) corrections(c, upto int) int64 { return int64(g.start[c][upto]) }

// msgsPerTick is the measured message rate of the population's gates.
func (g *genTrace) msgsPerTick() float64 { return float64(g.sent) / float64(g.attempts) }

// generateTrace runs a real source.Source gate per stream for `ticks`
// ticks and records what each ships. One worker per connection generates
// that connection's streams stream-major (the gate, its filter and its
// RNG stay in cache), then a counting sort puts the records in tick order.
func generateTrace(pop *population, seed int64, ticks int, truth *truthTable) (*genTrace, error) {
	g := &genTrace{pop: pop, ticks: ticks,
		recs: make([][]record, pop.conns), start: make([][]int32, pop.conns)}
	journal := trace.NewJournal(1, 1) // never enabled: the gate pays one atomic load
	errs := make([]error, pop.conns)
	sent := make([]int64, pop.conns)
	var wg sync.WaitGroup
	for c := 0; c < pop.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := pop.owned(c)
			var byStream []record
			counts := make([]int32, ticks+1)
			for i := lo; i < hi; i++ {
				def := pop.streams[i]
				src, err := source.New(source.Config{
					StreamID:       def.id,
					Spec:           def.spec,
					Delta:          def.delta,
					HeartbeatEvery: heartbeatEvery,
					Telemetry:      telemetry.New(), // private: 7 series per gate, dropped with it
					Trace:          journal,
				}, func(m *netsim.Message) {
					byStream = append(byStream, record{uint32(i), uint32(m.Tick), m.Value[0]})
					counts[m.Tick+1]++
					netsim.PutMessage(m)
				})
				if err != nil {
					errs[c] = err
					return
				}
				gen := pop.generator(seed, i, ticks)
				wantTicks, wantZ := truth.ticks[i], truth.z[i]
				w := 0
				for t := 0; t < ticks; t++ {
					p, ok := gen.Next()
					if !ok {
						errs[c] = fmt.Errorf("trace: stream %s exhausted at tick %d", def.id, t)
						return
					}
					if w < len(wantTicks) && wantTicks[w] == uint32(t) {
						wantZ[w] = p.Value[0]
						w++
					}
					if _, err := src.Observe(int64(t), p.Value); err != nil {
						errs[c] = err
						return
					}
				}
			}
			sent[c] = int64(len(byStream))
			// Counting sort by tick; stable, so within a tick records keep
			// stream order and the replay is the same on every run.
			for t := 0; t < ticks; t++ {
				counts[t+1] += counts[t]
			}
			sorted := make([]record, len(byStream))
			next := append([]int32(nil), counts...)
			for _, r := range byStream {
				sorted[next[r.tick]] = r
				next[r.tick]++
			}
			g.recs[c], g.start[c] = sorted, counts
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, err
		}
		g.sent += sent[c]
	}
	g.attempts = int64(len(pop.streams)) * int64(ticks)
	return g, nil
}
