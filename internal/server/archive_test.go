package server_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/query"
	"kalmanstream/internal/resource"
	"kalmanstream/internal/server"
	"kalmanstream/internal/server/servertest"
	"kalmanstream/internal/source"
)

// historyFixture registers a static stream with history and feeds ticks
// 0..n-1 with value = tick (each tick corrected), then moves the clock
// past the last, which settles it.
func historyFixture(t *testing.T, capacity, n int) *servertest.Clock {
	t.Helper()
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", capacity); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Tick()
		err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a",
			Tick: int64(i), Value: []float64{float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Tick()
	return s
}

func TestEnableHistoryValidation(t *testing.T) {
	s := servertest.New()
	if err := s.EnableHistory("nope", 4); err == nil {
		t.Error("unknown stream accepted")
	}
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := s.EnableHistory("a", 4); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 4); err == nil {
		t.Error("double enable accepted")
	}
}

func TestHistoryRecordsSettledAnswers(t *testing.T) {
	s := historyFixture(t, 100, 10)
	for tick := int64(0); tick < 10; tick++ {
		e, err := s.HistoryAt("a", tick)
		if err != nil {
			t.Fatal(err)
		}
		if e.Tick != tick {
			t.Fatalf("entry tick %d, want %d", e.Tick, tick)
		}
		// Every tick received a correction, so history holds the exact
		// measurement with bound 0.
		if e.Estimate[0] != float64(tick) || e.Bound != 0 {
			t.Fatalf("tick %d: %v ± %v, want %v ± 0", tick, e.Estimate[0], e.Bound, float64(tick))
		}
	}
}

func TestHistorySuppressedTicksCarryDelta(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 16); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: 0, Value: []float64{7}})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick() // tick 1: suppressed
	s.Tick() // settles tick 1
	e0, err := s.HistoryAt("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e0.Bound != 0 || e0.Estimate[0] != 7 {
		t.Fatalf("corrected tick archived as %v ± %v", e0.Estimate[0], e0.Bound)
	}
	e1, err := s.HistoryAt("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Bound != 0.5 || e1.Estimate[0] != 7 {
		t.Fatalf("suppressed tick archived as %v ± %v, want 7 ± 0.5", e1.Estimate[0], e1.Bound)
	}
}

func TestHistoryEviction(t *testing.T) {
	s := historyFixture(t, 4, 10) // ticks 0..9, only 6..9 retained
	if n, err := s.HistoryLen("a", s.At()); err != nil || n != 4 {
		t.Fatalf("len = %d, %v", n, err)
	}
	if _, err := s.HistoryAt("a", 5); err == nil {
		t.Fatal("evicted tick answered")
	}
	e, err := s.HistoryAt("a", 6)
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimate[0] != 6 {
		t.Fatalf("tick 6 = %v", e.Estimate[0])
	}
	if _, err := s.HistoryAt("a", 10); err == nil {
		t.Fatal("unsettled tick answered")
	}
}

func TestHistoryRange(t *testing.T) {
	s := historyFixture(t, 100, 10)
	entries, err := s.HistoryRange("a", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || entries[0].Tick != 3 || entries[3].Tick != 6 {
		t.Fatalf("range = %+v", entries)
	}
	if _, err := s.HistoryRange("a", 6, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := s.HistoryRange("a", -5, 2); err == nil {
		t.Error("range with evicted/never ticks accepted")
	}
}

func TestHistoryErrorsWithoutEnable(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HistoryAt("a", 0); err == nil {
		t.Error("history answered without enable")
	}
	if _, err := s.HistoryLen("a", s.At()); err == nil {
		t.Error("history len without enable")
	}
	if _, err := s.HistoryAt("zz", 0); err == nil {
		t.Error("unknown stream answered")
	}
	if _, err := s.HistoryLen("zz", s.At()); err == nil {
		t.Error("unknown stream len answered")
	}
}

func TestHistoryBeforeAnyTick(t *testing.T) {
	s := servertest.New()
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableHistory("a", 4); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.HistoryLen("a", s.At()); n != 0 {
		t.Fatalf("len before ticks = %d", n)
	}
	s.Tick()
	if _, _, err := s.Value("a"); err != nil { // reading at tick 0 archives nothing (no tick settled)
		t.Fatal(err)
	}
	if n, _ := s.HistoryLen("a", s.At()); n != 0 {
		t.Fatalf("len after first tick = %d", n)
	}
}

// TestTickClockReadsMoveNoRecord: on the tick clock the answer archive
// (an enable, point and range reads, the query engine's aggregates over
// it), a δ change and a budget reallocation take the reader's tick and
// write no record: every record's checkpoint state is what it was, δ
// aside, while the archive answers exactly what a client asking on each
// tick was told. The run ends silent, so every one of them reads ahead of
// the record.
func TestTickClockReadsMoveNoRecord(t *testing.T) {
	const n = 40
	c := servertest.New()
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.05, R: 0.1}}
	var srcs []*source.Source
	for _, id := range []string{"s", "u"} {
		if err := c.Register(id, spec, 0.5); err != nil {
			t.Fatal(err)
		}
		link := netsim.NewLink(func(m *netsim.Message) {
			if err := c.Apply(m); err != nil {
				t.Error(err)
			}
		}, netsim.LinkConfig{})
		src, err := source.New(source.Config{StreamID: id, Spec: spec, Delta: 0.5}, link.Send)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	if err := c.EnableHistory("s", n); err != nil {
		t.Fatal(err)
	}
	var told [][]float64
	var bounds []float64
	for tick := int64(0); tick < n; tick++ {
		c.Tick()
		v := 3 * math.Sin(float64(min(tick, n-10))/3) // the last ten ticks hold still
		for _, src := range srcs {
			if _, err := src.Observe(tick, []float64{v}); err != nil {
				t.Fatal(err)
			}
		}
		est, bound, err := c.Value("s")
		if err != nil {
			t.Fatal(err)
		}
		told, bounds = append(told, est), append(bounds, bound)
	}
	for _, id := range []string{"s", "u"} {
		if info, err := c.Info(id, -1); err != nil || info.Tick > c.At() {
			t.Fatalf("%s stands at tick %d (err %v): the run must end silent", id, info.Tick-1, err)
		}
	}
	bitEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}

	before := server.CheckpointStates(t, c.Server)
	if err := c.EnableHistory("u", 8); err != nil {
		t.Fatal(err)
	}
	last := c.At() - 1 // the last settled tick
	for tick := int64(0); tick <= last; tick++ {
		e, err := c.HistoryAt("s", tick)
		if err != nil || !bitEqual(e.Estimate, told[tick]) || e.Bound != bounds[tick] {
			t.Fatalf("tick %d: archived %+v (err %v), told %v ± %v", tick, e, err, told[tick], bounds[tick])
		}
	}
	if r, err := c.HistoryRange("s", 0, last); err != nil || len(r) != int(last+1) {
		t.Fatalf("range holds %d entries (err %v), want %d", len(r), err, last+1)
	}
	eng := query.New(c.Server, c.At)
	if _, err := eng.HistoryAverage("s", 0, 0, last); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.HistoryExtremes("s", 0, 0, last); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDelta("s", 0.75); err != nil {
		t.Fatal(err)
	}
	// One reallocation, on the coordinator's last tick of its first period:
	// the clock's own.
	period := c.At() + 1
	coord, err := resource.NewCoordinator(resource.Uniform{}, c.Server, resource.CoordinatorConfig{BudgetPerTick: 0.01, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if err := coord.Manage(src, resource.ManagedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for range period {
		if err := coord.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := c.Delta("u"); err != nil || coord.Rounds() != 1 || d == 0.5 {
		t.Fatalf("reallocation rounds %d, δ of u %v (err %v): want one round that moved it", coord.Rounds(), d, err)
	}

	after := server.CheckpointStates(t, c.Server)
	for i := range before {
		before[i].Delta = after[i].Delta // a δ change writes δ alone
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("tick-clock reads moved a record:\n got %+v\nwant %+v", after, before)
	}
	if est, bound, err := c.Value("s"); err != nil || !bitEqual(est, told[n-1]) || bound == bounds[n-1] {
		t.Fatalf("after the δ changes: %v ± %v (err %v), want %v under the new δ", est, bound, err, told[n-1])
	}
}

// TestArchivedIngestAllocs: an applied correction on an archived stream
// allocates its mark — the replica's clone, which builds no mat-path
// scratch it would never use — and nothing else, and on a stream without
// an archive nothing at all.
func TestArchivedIngestAllocs(t *testing.T) {
	for _, model := range []predictor.ModelKind{predictor.ModelConstantVelocity, predictor.ModelConstantAcceleration} {
		for _, archived := range []bool{false, true} {
			s := server.New()
			spec := predictor.Spec{Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: model, Q: 0.01, R: 0.5}}
			if err := s.Register("s", spec, 0.5); err != nil {
				t.Fatal(err)
			}
			if archived {
				if err := s.EnableHistory("s", 16, -1); err != nil {
					t.Fatal(err)
				}
			}
			m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Value: []float64{1}}
			ingest := func() {
				m.Tick += 2
				if _, _, err := s.Ingest(m, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			for range 32 {
				ingest()
			}
			want := 0.0
			if archived {
				want = 4
			}
			if got := testing.AllocsPerRun(200, ingest); got > want {
				t.Errorf("%s, archived %v: an applied correction allocates %v objects, want ≤ %v", model, archived, got, want)
			}
		}
	}
}
