package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"kalmanstream/internal/server"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
)

// oracleSource is one real gate on its own connection and its own clock,
// with what the test knows of it: the last tick it sent a correction on,
// what its own connection was told on every tick so far, and the answers
// a querier got ahead of it, to hold against the source when it gets there.
type oracleSource struct {
	id       string
	ns       *NetworkedSource
	gen      stream.Stream
	tick     int64 // the tick last observed, -1 before the first
	sent     int64 // the tick of the last correction, -1 before the first
	said     []AnswerPayload
	forecast map[int64][]float64
}

// TestSourceIsTheOracle holds the deployed path to the protocol's promise:
// the source's gate is the oracle. N gates, each a NetworkedSource over a
// wire.Client of its own, tick on their own clocks and generators; after
// each tick the source's connection asks for its stream at that tick. On a
// suppressed tick the answer must be the source's own prediction, bit for
// bit, within δ of the measurement; on a sent tick, the measurement with
// bound 0. Meanwhile a querier on another connection reads random streams
// at the source's tick plus an offset — behind, equal or ahead. A read no
// source made must not change what any source is told: behind its record
// it is refused with ErrTickBehind, at or behind the source it repeats
// what the source was told, and ahead it is what the source will be told
// if it stays silent until then.
func TestSourceIsTheOracle(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 5
	}
	for _, offset := range []string{"behind", "equal", "ahead"} {
		for _, coalesce := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/coalesce=%t", offset, coalesce), func(t *testing.T) {
				for seed := int64(1); seed <= seeds; seed++ {
					runOracle(t, seed, offset, coalesce)
				}
			})
		}
	}
}

func runOracle(t *testing.T, seed int64, offset string, coalesce bool) {
	const (
		sources = 3
		ticks   = 120
		delta   = 0.5
	)
	_, addr := startQuietServer(t)
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]*oracleSource, sources)
	for i := range srcs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if coalesce {
			c.EnableCoalescing(CoalesceConfig{})
		}
		o := &oracleSource{id: fmt.Sprintf("s%d-%d", seed, i), tick: -1, sent: -1, forecast: map[int64][]float64{}}
		ns, err := NewNetworkedSource(c, source.Config{StreamID: o.id, Spec: modelSpecs[i%2], Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		o.ns = ns
		if i%2 == 0 {
			o.gen = stream.NewRandomWalk(seed*sources+int64(i), 0, 1, 0.1, ticks)
		} else {
			o.gen = stream.NewSine(seed*sources+int64(i), 0, 10, 40, 0, 0.2, ticks)
		}
		srcs[i] = o
	}
	querier, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer querier.Close()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}

	for live := sources; live > 0; {
		o := srcs[rng.Intn(sources)]
		if o.gen == nil {
			continue
		}
		p, ok := o.gen.Next()
		if !ok {
			o.gen, live = nil, live-1
			continue
		}
		sent, err := o.ns.Observe(p.Tick, p.Value)
		if err != nil {
			fail("%s tick %d: observe: %v", o.id, p.Tick, err)
		}
		o.tick = p.Tick
		ans, err := o.ns.client.Query(o.id, p.Tick)
		if err != nil {
			fail("%s tick %d: own query: %v", o.id, p.Tick, err)
		}
		if sent {
			o.sent = p.Tick
			clear(o.forecast)
			if ans.Bound != 0 || !bitEqual(ans.Estimate, p.Value) {
				fail("%s tick %d: sent %v, told %v ± %v", o.id, p.Tick, p.Value, ans.Estimate, ans.Bound)
			}
		} else {
			want := o.ns.Source().Prediction()
			if ans.Bound != delta || !bitEqual(ans.Estimate, want) || math.Abs(ans.Estimate[0]-p.Value[0]) > delta {
				fail("%s tick %d: source predicts %v of measurement %v, told %v ± %v",
					o.id, p.Tick, want, p.Value, ans.Estimate, ans.Bound)
			}
			if f, ok := o.forecast[p.Tick]; ok && !bitEqual(f, want) {
				fail("%s tick %d: a querier was told %v ahead of time, the source predicts %v", o.id, p.Tick, f, want)
			}
		}
		o.said = append(o.said, ans)

		if rng.Intn(2) != 0 {
			continue
		}
		q := srcs[rng.Intn(sources)]
		if q.tick < 0 {
			continue
		}
		at := q.tick
		switch offset {
		case "behind":
			at -= 1 + int64(rng.Intn(4))
		case "ahead":
			at += 1 + int64(rng.Intn(8))
		}
		if at < 0 {
			continue
		}
		got, err := querier.Query(q.id, at)
		switch {
		case at < q.sent:
			if !errors.Is(err, ErrServer) || !strings.Contains(err.Error(), server.ErrTickBehind.Error()) {
				fail("%s at tick %d, behind its correction at %d: %v ± %v (err %v), want a refusal naming %q",
					q.id, at, q.sent, got.Estimate, got.Bound, err, server.ErrTickBehind)
			}
		case err != nil:
			fail("%s at tick %d (source at %d): %v", q.id, at, q.tick, err)
		case at <= q.tick:
			if want := q.said[at]; got.Bound != want.Bound || !bitEqual(got.Estimate, want.Estimate) {
				fail("%s at tick %d: querier told %v ± %v, the source was told %v ± %v",
					q.id, at, got.Estimate, got.Bound, want.Estimate, want.Bound)
			}
		default:
			q.forecast[at] = got.Estimate
		}
	}
}

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
