package resource

import (
	"math"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/server/servertest"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

// budgetFixture builds a server with n random-walk sources of differing
// volatilities, all under a coordinator with the given allocator and
// budget, runs for ticks, and returns (total corrections, delta-update
// count, coordinator).
func budgetFixture(t *testing.T, alloc Allocator, budget float64, nStreams int, ticks int64) (int64, int64, *Coordinator, []*source.Source) {
	t.Helper()
	srv := servertest.New()
	var deltaUpdates int64
	coord, err := NewCoordinator(alloc, srv.Server, CoordinatorConfig{
		BudgetPerTick: budget,
		Period:        200,
		Downlink:      func(*netsim.Message) { deltaUpdates++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var srcs []*source.Source
	var gens []stream.Stream
	for i := 0; i < nStreams; i++ {
		id := string(rune('a' + i))
		spec := predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}}
		if err := srv.Register(id, spec, 1); err != nil {
			t.Fatal(err)
		}
		link := netsim.NewLink(func(m *netsim.Message) {
			if err := srv.Apply(m); err != nil {
				t.Fatalf("apply: %v", err)
			}
		}, netsim.LinkConfig{})
		src, err := source.New(source.Config{StreamID: id, Spec: spec, Delta: 1}, link.Send)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Manage(src, ManagedOptions{}); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
		// Volatility grows with index: stepStd ∈ {0.5, 1, 2, 4, ...}.
		gens = append(gens, stream.NewRandomWalk(int64(100+i), 0, 0.5*math.Pow(2, float64(i)), 0.05, ticks))
	}
	for tick := int64(0); tick < ticks; tick++ {
		srv.Tick()
		for i, g := range gens {
			p, ok := g.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			if _, err := srcs[i].Observe(p.Tick, p.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, s := range srcs {
		total += s.Stats().Sent
	}
	return total, deltaUpdates, coord, srcs
}

func TestNewCoordinatorValidation(t *testing.T) {
	srv := servertest.New()
	if _, err := NewCoordinator(nil, srv.Server, CoordinatorConfig{BudgetPerTick: 1}); err == nil {
		t.Error("nil allocator accepted")
	}
	if _, err := NewCoordinator(Uniform{}, nil, CoordinatorConfig{BudgetPerTick: 1}); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := NewCoordinator(Uniform{}, srv.Server, CoordinatorConfig{BudgetPerTick: 0}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestManageValidation(t *testing.T) {
	srv := servertest.New()
	coord, err := NewCoordinator(Uniform{}, srv.Server, CoordinatorConfig{BudgetPerTick: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Manage(nil, ManagedOptions{}); err == nil {
		t.Error("nil source accepted")
	}
	spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
	src, err := source.New(source.Config{StreamID: "ghost", Spec: spec, Delta: 1}, func(*netsim.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Manage(src, ManagedOptions{}); err == nil {
		t.Error("unregistered stream accepted")
	}
	if err := srv.Register("ghost", spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := coord.Manage(src, ManagedOptions{Weight: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if err := coord.Manage(src, ManagedOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorConvergesToBudget(t *testing.T) {
	for _, alloc := range []Allocator{Uniform{}, &FairShare{}, &WaterFilling{}, AIMD{}} {
		budget := 0.2 // messages/tick across 4 streams
		ticks := int64(12000)
		total, _, coord, _ := budgetFixture(t, alloc, budget, 4, ticks)
		if coord.Rounds() == 0 {
			t.Fatalf("%s: no reallocation rounds ran", alloc.Name())
		}
		// Measure the achieved rate over the second half of the run
		// (after convergence). We only kept totals, so check the overall
		// rate against a generous band: the first periods overspend
		// while δ adapts upward from the initial guess.
		rate := float64(total) / float64(ticks)
		if rate > budget*2.5 {
			t.Errorf("%s: achieved rate %.4f far above budget %.3f", alloc.Name(), rate, budget)
		}
		if rate < budget/20 {
			t.Errorf("%s: achieved rate %.4f wastes the budget %.3f", alloc.Name(), rate, budget)
		}
	}
}

func TestFairShareLoosensVolatileStreams(t *testing.T) {
	_, _, coord, _ := budgetFixture(t, &FairShare{}, 0.2, 4, 8000)
	deltas := coord.Deltas()
	// Streams are ordered by growing volatility; converged δs should
	// grow too.
	for i := 1; i < len(deltas); i++ {
		if deltas[i] <= deltas[i-1] {
			t.Fatalf("fair-share deltas not increasing with volatility: %v", deltas)
		}
	}
}

func TestDeltaUpdatesFlowDownlink(t *testing.T) {
	_, updates, _, srcs := budgetFixture(t, &FairShare{}, 0.2, 2, 2000)
	if updates == 0 {
		t.Fatal("no delta updates sent")
	}
	for _, s := range srcs {
		if s.Delta() == 1 {
			t.Fatal("source delta never changed from initial value")
		}
	}
}

func TestServerAndSourceDeltasStayInSync(t *testing.T) {
	srv := servertest.New()
	coord, err := NewCoordinator(&WaterFilling{}, srv.Server, CoordinatorConfig{BudgetPerTick: 0.1, Period: 50})
	if err != nil {
		t.Fatal(err)
	}
	spec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
	if err := srv.Register("a", spec, 1); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(func(m *netsim.Message) { _ = srv.Apply(m) }, netsim.LinkConfig{})
	src, err := source.New(source.Config{StreamID: "a", Spec: spec, Delta: 1}, link.Send)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Manage(src, ManagedOptions{}); err != nil {
		t.Fatal(err)
	}
	g := stream.NewRandomWalk(5, 0, 2, 0.05, 500)
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		srv.Tick()
		if _, err := src.Observe(p.Tick, p.Value); err != nil {
			t.Fatal(err)
		}
		if err := coord.Tick(); err != nil {
			t.Fatal(err)
		}
		srvDelta, err := srv.Delta("a")
		if err != nil {
			t.Fatal(err)
		}
		if srvDelta != src.Delta() {
			t.Fatalf("tick %d: server δ %v != source δ %v", p.Tick, srvDelta, src.Delta())
		}
	}
}

// TestCoordinatorTelemetry checks the coordinator's runtime counters:
// reallocation rounds, delta updates, and a sane budget-utilization
// gauge for the last closed window.
func TestCoordinatorTelemetry(t *testing.T) {
	reg := telemetry.New()
	srv := servertest.New()
	coord, err := NewCoordinator(&FairShare{}, srv.Server, CoordinatorConfig{
		BudgetPerTick: 0.05,
		Period:        100,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}}
	if err := srv.Register("s", spec, 1); err != nil {
		t.Fatal(err)
	}
	src, err := source.New(source.Config{StreamID: "s", Spec: spec, Delta: 1}, func(m *netsim.Message) {
		if err := srv.Apply(m); err != nil {
			t.Fatalf("apply: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Manage(src, ManagedOptions{}); err != nil {
		t.Fatal(err)
	}
	gen := stream.NewRandomWalk(7, 0, 2, 0.05, 1000)
	for tick := int64(0); tick < 1000; tick++ {
		srv.Tick()
		p, ok := gen.Next()
		if !ok {
			t.Fatal("stream ended early")
		}
		if _, err := src.Observe(p.Tick, p.Value); err != nil {
			t.Fatal(err)
		}
		if err := coord.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("coordinator_reallocations_total").Value(); got != coord.Rounds() {
		t.Fatalf("reallocations counter %d, Rounds() %d", got, coord.Rounds())
	}
	if coord.Rounds() != 10 {
		t.Fatalf("rounds = %d, want 10", coord.Rounds())
	}
	if got := reg.Gauge("coordinator_budget_per_tick").Value(); got != 0.05 {
		t.Fatalf("budget gauge = %g", got)
	}
	util := reg.Gauge("coordinator_budget_utilization").Value()
	if util < 0 || util > 25 {
		t.Fatalf("utilization gauge %g out of plausible range", util)
	}
	if reg.Counter("coordinator_delta_updates_total").Value() == 0 {
		t.Fatal("no delta updates counted for a volatile over-budget stream")
	}
}

// TestCoordinatorReallocateZeroAllocs asserts the satellite claim
// directly: a warmed-up reallocation round — window gathering,
// incremental allocation, telemetry, and a full set of delta updates —
// performs zero heap allocations. The downlink recycles delivered
// messages, so even rounds that push new δs to every stream draw from
// the pool rather than the heap.
func TestCoordinatorReallocateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race, so pooled paths allocate by design")
	}
	srv := server.New()
	coord, err := NewCoordinator(&WaterFilling{}, srv, CoordinatorConfig{
		BudgetPerTick: 2,
		Period:        1, // every Tick reallocates
		Downlink:      func(m *netsim.Message) { netsim.PutMessage(m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		spec := predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}}
		if err := srv.Register(id, spec, 1); err != nil {
			t.Fatal(err)
		}
		src, err := source.New(source.Config{StreamID: id, Spec: spec, Delta: 1}, func(m *netsim.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Manage(src, ManagedOptions{Weight: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: primes the coordinator's window/delta scratch, every
	// source's encode path, and the message pool. (With Period=1 and no
	// traffic the δ² term in the cost sample keeps estimates moving, so
	// these rounds keep recomputing terms and pushing delta updates —
	// which makes the zero-allocs assertion below the strong form.)
	var tickErr error
	for i := 0; i < 512 && tickErr == nil; i++ {
		tickErr = coord.Tick()
	}
	if tickErr != nil {
		t.Fatal(tickErr)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := coord.Tick(); err != nil {
			tickErr = err
		}
	})
	if tickErr != nil {
		t.Fatal(tickErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state reallocation allocates: %.1f allocs/round, want 0", allocs)
	}
}
