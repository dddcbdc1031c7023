package core

import (
	"fmt"
	"math"
	"testing"

	"kalmanstream/internal/resource"
	"kalmanstream/internal/resource/resourcetest"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

// e8Sweep replays one E8 budget point (harness.runBudget's loop: 32
// random walks with σ log-spread 0.1–10, period 500, one settling
// Advance) on a System whose coordinator runs the injected allocator
// instance — SystemConfig carries only an allocator name, so the
// coordinator is swapped before any stream is attached.
func e8Sweep(t *testing.T, alloc resource.Allocator, budget float64, ticks, seed int64) (rate, meanDelta, maxDelta float64, rounds int64) {
	t.Helper()
	const nStreams = 32
	sys, err := NewSystem(SystemConfig{BudgetPerTick: budget, AllocPeriod: 500})
	if err != nil {
		t.Fatal(err)
	}
	sys.node.coord, err = resource.NewCoordinator(alloc, sys.node.srv, resource.CoordinatorConfig{BudgetPerTick: budget, Period: 500})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*StreamHandle, nStreams)
	gens := make([]stream.Stream, nStreams)
	for i := range handles {
		sigma := 0.1 * math.Pow(100, float64(i)/float64(nStreams-1))
		handles[i], err = sys.Attach(StreamConfig{
			ID:        fmt.Sprintf("s%02d", i),
			Predictor: KalmanRandomWalk(sigma*sigma, 0.01),
			Delta:     sigma,
		})
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = stream.NewRandomWalk(seed+int64(i), 0, sigma, sigma/20, ticks)
	}
	half := ticks / 2
	var sentAtHalf int64
	for tick := int64(0); tick < ticks; tick++ {
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		for i, g := range gens {
			p, ok := g.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			if _, err := handles[i].Observe(p.Value); err != nil {
				t.Fatal(err)
			}
		}
		if tick == half {
			sentAtHalf = sys.TotalMessages()
		}
	}
	if err := sys.Advance(); err != nil {
		t.Fatal(err)
	}
	var sumD float64
	for _, h := range handles {
		d := h.Delta()
		sumD += d
		maxDelta = math.Max(maxDelta, d)
	}
	return float64(sys.TotalMessages()-sentAtHalf) / float64(ticks-half), sumD / nStreams, maxDelta, sys.AllocRounds()
}

// TestIncrementalAllocatorsMatchE8Sweep is the end-to-end half of the
// incremental-allocation equivalence suite: it replays the E8 budget
// sweep (every budget point, 32 heterogeneous streams) once with the
// closed-form oracle (resourcetest) and once with the caching allocator
// production runs, and requires every headline number —
// achieved rate, mean δ, max δ, reallocation rounds — to be
// bit-identical. Any divergence in any allocation of any round would
// cascade into different correction traffic and fail here.
func TestIncrementalAllocatorsMatchE8Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	for _, tc := range []struct {
		name    string
		scratch resource.Allocator
		fresh   func() resource.Allocator
	}{
		{"fair-share", resourcetest.FairShare{}, func() resource.Allocator { return &resource.FairShare{} }},
		{"water-filling", resourcetest.WaterFilling{}, func() resource.Allocator { return &resource.WaterFilling{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, budget := range []float64{0.5, 1, 2, 4} {
				wantRate, wantMean, wantMax, wantRounds := e8Sweep(t, tc.scratch, budget, 4000, 42)
				// Fresh caching instance per combo, exactly as
				// resource.ByName hands one to NewSystem.
				gotRate, gotMean, gotMax, gotRounds := e8Sweep(t, tc.fresh(), budget, 4000, 42)
				if gotRounds != wantRounds || gotRounds != 4000/500 {
					t.Fatalf("budget %g: rounds %d, closed form %d, want %d", budget, gotRounds, wantRounds, 4000/500)
				}
				for _, c := range []struct {
					field     string
					got, want float64
				}{
					{"achieved rate", gotRate, wantRate},
					{"mean delta", gotMean, wantMean},
					{"max delta", gotMax, wantMax},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.want) {
						t.Fatalf("budget %g: %s diverged: cached %x != closed form %x",
							budget, c.field, math.Float64bits(c.got), math.Float64bits(c.want))
					}
				}
			}
		})
	}
}

// TestCoordinatorTickedForSettledTick pins Advance's coordinator
// contract: the coordinator is ticked for the tick that just settled, so
// a window of P ticks closes in the Advance after the P-th tick's
// Observes and has seen all P of them.
func TestCoordinatorTickedForSettledTick(t *testing.T) {
	const (
		period  = 50
		streams = 4
		budget  = 2.0
	)
	sys, err := NewSystem(SystemConfig{BudgetPerTick: budget, Allocator: "uniform", AllocPeriod: period})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*StreamHandle, streams)
	for i := range handles {
		// A unit ramp against a last-value cache with δ far below the
		// step: every tick ships.
		handles[i], err = sys.Attach(StreamConfig{ID: fmt.Sprintf("r%d", i), Predictor: StaticCache(1), Delta: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < period; tick++ {
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		for _, h := range handles {
			if _, err := h.Observe([]float64{float64(tick + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, h := range handles {
		if sent := h.Stats().Sent; sent != period {
			t.Fatalf("%s shipped %d of %d ticks; the scenario needs every tick shipped", h.ID(), sent, period)
		}
	}
	if r := sys.AllocRounds(); r != 0 {
		t.Fatalf("%d rounds after %d ticks and no settling Advance, want 0: the window closed before its last tick was observed", r, period)
	}
	if err := sys.Advance(); err != nil {
		t.Fatal(err)
	}
	if r := sys.AllocRounds(); r != 1 {
		t.Fatalf("%d rounds after the settling Advance, want 1", r)
	}
	// The coordinator reports on telemetry.Default (SystemConfig.Telemetry
	// is the auditor's registry).
	if got, want := telemetry.Default.Gauge("coordinator_budget_utilization").Value(), streams/budget; got != want {
		t.Fatalf("first window's utilization = %v, want exactly %v (%d streams × %d ticks over budget %g × %d)",
			got, want, streams, period, budget, period)
	}
}
