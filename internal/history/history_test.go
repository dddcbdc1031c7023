package history

import (
	"math"
	"strings"
	"sync"
	"testing"

	"kalmanstream/internal/telemetry"
)

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTierValidation(t *testing.T) {
	reg := telemetry.New()
	bad := [][]Tier{
		{{Every: 0, Len: 10}},
		{{Every: 1, Len: 0}},
		{{Every: 1, Len: 10}, {Every: 1, Len: 10}},  // not increasing
		{{Every: 2, Len: 10}, {Every: 5, Len: 10}},  // not a multiple
		{{Every: 10, Len: 10}, {Every: 5, Len: 10}}, // decreasing
	}
	for i, tiers := range bad {
		if _, err := NewStore(Config{Registry: reg, Tiers: tiers}); err == nil {
			t.Errorf("case %d: invalid tiers %v accepted", i, tiers)
		}
	}
	if _, err := NewStore(Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 4}, {Every: 4, Len: 4}, {Every: 12, Len: 4}}}); err != nil {
		t.Errorf("valid cascade rejected: %v", err)
	}
}

// TestDownsampleCascadeGolden pins the cascade invariant on known
// input: a coarser tier's bucket equals the aggregate of the finer
// buckets spanning it — sums for counter deltas, last/min/max for
// gauges.
func TestDownsampleCascadeGolden(t *testing.T) {
	reg := telemetry.New()
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 16}, {Every: 4, Len: 8}}})
	st.Tick() // tick 1: baseline scrape, before the series exist

	// Ticks 2..9: tick i+1 adds i events and sets depth to a sawtooth.
	c := reg.Counter("events_total")
	g := reg.Gauge("depth")
	depths := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for i := 1; i <= 8; i++ {
		c.Add(int64(i))
		g.Set(depths[i-1])
		st.Tick()
	}

	fine := st.Query(Q{Name: "events_total", Tier: 0})
	if len(fine) != 1 {
		t.Fatalf("got %d counter series at tier 0, want 1", len(fine))
	}
	if len(fine[0].Points) != 8 {
		t.Fatalf("tier0: %d buckets, want 8", len(fine[0].Points))
	}
	for i, p := range fine[0].Points {
		if want := float64(i + 1); p.Value != want {
			t.Errorf("tier0 bucket %d: delta %v, want %v", i, p.Value, want)
		}
		if want := int64(i + 2); p.EndTick != want {
			t.Errorf("tier0 bucket %d: end tick %d, want %d", i, p.EndTick, want)
		}
	}

	coarse := st.Query(Q{Name: "events_total", Tier: 1})
	if len(coarse) != 1 || len(coarse[0].Points) != 2 {
		t.Fatalf("tier1 counter: got %+v, want 2 buckets", coarse)
	}
	// The 4-tick buckets close at ticks 4 and 8: deltas 1+2+3=6 (ticks
	// 2..4) and 4+5+6+7=22 (ticks 5..8); the delta at tick 9 is still
	// in the open accumulator.
	wantVals := []float64{6, 22}
	wantEnds := []int64{4, 8}
	for i, p := range coarse[0].Points {
		if p.Value != wantVals[i] || p.EndTick != wantEnds[i] {
			t.Errorf("tier1 bucket %d: (%v @%d), want (%v @%d)", i, p.Value, p.EndTick, wantVals[i], wantEnds[i])
		}
		if want := wantVals[i] / 4; p.Rate != want {
			t.Errorf("tier1 bucket %d: rate %v, want %v", i, p.Rate, want)
		}
	}

	gauge := st.Query(Q{Name: "depth", Tier: 1})
	if len(gauge) != 1 || len(gauge[0].Points) != 2 {
		t.Fatalf("tier1 gauge: got %+v, want 2 buckets", gauge)
	}
	// Samples [3 1 4] (ticks 2..4): last 4, min 1, max 4;
	// [1 5 9 2] (ticks 5..8): last 2, min 1, max 9.
	want := []BucketPoint{
		{EndTick: 4, Value: 4, Min: 1, Max: 4},
		{EndTick: 8, Value: 2, Min: 1, Max: 9},
	}
	for i, p := range gauge[0].Points {
		if p != want[i] {
			t.Errorf("tier1 gauge bucket %d: %+v, want %+v", i, p, want[i])
		}
	}
}

// TestQuantileFromBucketDeltaGolden pins the windowed-quantile math on
// hand-computed input: observations land in known buckets, and the
// per-bucket quantile interpolates inside the containing bound exactly
// as telemetry.Sample.Quantile would over the same window.
func TestQuantileFromBucketDeltaGolden(t *testing.T) {
	reg := telemetry.New()
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 8}}})
	st.Tick() // baseline scrape before the histogram exists
	h := reg.Histogram("lat_seconds", []float64{0.1, 0.2, 0.4})

	// Window 1: 8 obs in (0, 0.1], 2 obs in (0.1, 0.2].
	for i := 0; i < 8; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.15)
	h.Observe(0.15)
	st.Tick()
	// Window 2: 4 obs in (0.2, 0.4] — distinct, to prove deltas, not
	// cumulative totals, drive each bucket's quantile.
	for i := 0; i < 4; i++ {
		h.Observe(0.3)
	}
	st.Tick()

	q := st.Query(Q{Name: "lat_seconds", Tier: 0})
	if len(q) != 1 || len(q[0].Points) != 2 {
		t.Fatalf("got %+v, want 1 series × 2 buckets", q)
	}
	p1, p2 := q[0].Points[0], q[0].Points[1]
	if p1.Count != 10 || p2.Count != 4 {
		t.Fatalf("counts (%v, %v), want (10, 4)", p1.Count, p2.Count)
	}
	// Window 1 p50: rank 5 of 10 → 5/8 through (0, 0.1] = 0.0625.
	if want := 0.0625; math.Abs(p1.P50-want) > 1e-12 {
		t.Errorf("window1 p50 = %v, want %v", p1.P50, want)
	}
	// Window 1 p99: rank 9.9 of 10 → (9.9−8)/2 through (0.1, 0.2] = 0.195.
	if want := 0.195; math.Abs(p1.P99-want) > 1e-12 {
		t.Errorf("window1 p99 = %v, want %v", p1.P99, want)
	}
	// Window 2: all 4 obs in (0.2, 0.4]; p50 rank 2 → halfway = 0.3.
	if want := 0.3; math.Abs(p2.P50-want) > 1e-12 {
		t.Errorf("window2 p50 = %v, want %v", p2.P50, want)
	}
	if p1.Sum == 0 || p2.Sum == 0 {
		t.Error("per-bucket sums not recorded")
	}
}

// TestHistoryRecordZeroAlloc pins the acceptance bound: once every
// series has been seen, the per-tick record path — scrape, diff, fold
// into every tier, close buckets, run the anomaly detector — performs
// zero allocations.
func TestHistoryRecordZeroAlloc(t *testing.T) {
	reg := telemetry.New()
	counters := []*telemetry.Counter{
		reg.Counter("a_total"),
		reg.Counter("b_total", "stream", "s1"),
		reg.Counter("b_total", "stream", "s2"),
	}
	g := reg.Gauge("depth")
	h := reg.Histogram("lat_seconds", telemetry.LatencyBuckets)
	det := NewDetector(DetectorConfig{Registry: reg, Window: 16, MinHistory: 4})
	st := mustStore(t, Config{Registry: reg, Detector: det,
		Tiers: []Tier{{Every: 1, Len: 32}, {Every: 4, Len: 16}, {Every: 16, Len: 8}}})

	tick := func() {
		for _, c := range counters {
			c.Inc()
		}
		g.Add(1)
		h.Observe(0.002)
		st.Tick()
	}
	for i := 0; i < 40; i++ { // past MinHistory, so the detector runs too
		tick()
	}
	allocs := testing.AllocsPerRun(100, tick)
	if allocs != 0 {
		t.Fatalf("steady-state record tick allocates %.1f/op, want 0", allocs)
	}
}

// TestGaugeCarryForward: a gauge untouched across a bucket boundary
// reads flat (its last value), not zero.
func TestGaugeCarryForward(t *testing.T) {
	reg := telemetry.New()
	g := reg.Gauge("depth")
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 8}}})
	g.Set(7)
	st.Tick()
	st.Tick() // no gauge write between the ticks
	q := st.Query(Q{Name: "depth"})
	pts := q[0].Points
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[1].Value != 7 || pts[1].Min != 7 || pts[1].Max != 7 {
		t.Errorf("quiet bucket = %+v, want flat 7s", pts[1])
	}
}

func TestMaxSeriesCap(t *testing.T) {
	reg := telemetry.New()
	st := mustStore(t, Config{Registry: reg, MaxSeries: 4, Tiers: []Tier{{Every: 1, Len: 4}}})
	for i := 0; i < 8; i++ {
		reg.Counter("c_total", "stream", string(rune('a'+i))).Inc()
	}
	st.Tick()
	d := st.Dump(0, 0)
	// The scrape sees the 8 counters plus the store's own two gauges
	// (history_series, history_series_dropped): 4 tracked, 6 dropped.
	if d.SeriesCount != 4 {
		t.Errorf("tracked %d series, want 4 (cap)", d.SeriesCount)
	}
	if d.Dropped != 6 {
		t.Errorf("dropped gauge = %v, want 6", d.Dropped)
	}
}

func TestCounterResetHandled(t *testing.T) {
	reg := telemetry.New()
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 8}}})
	c := reg.Counter("c_total")
	c.Add(10)
	st.Tick() // baseline: delta 0 (pre-existing count is not a burst)
	c.Add(5)
	st.Tick()
	q := st.Query(Q{Name: "c_total"})
	pts := q[0].Points
	if pts[0].Value != 0 || pts[1].Value != 5 {
		t.Errorf("deltas (%v, %v), want (0, 5)", pts[0].Value, pts[1].Value)
	}
}

func TestMergeAcrossLabels(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("c_total", "stream", "a")
	reg.Counter("c_total", "stream", "b")
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 8}}})
	st.Tick()
	reg.Counter("c_total", "stream", "a").Add(2)
	reg.Counter("c_total", "stream", "b").Add(3)
	st.Tick()
	merged := Merge(st.Query(Q{Name: "c_total"}))
	if len(merged.Points) != 2 {
		t.Fatalf("merged %d points, want 2", len(merged.Points))
	}
	if got := merged.Points[1].Value; got != 5 {
		t.Errorf("merged delta = %v, want 5", got)
	}
}

// TestConcurrentRecordQuery is the -race hammer: ticks, queries,
// dumps, excerpts, and registry writes all running concurrently.
func TestConcurrentRecordQuery(t *testing.T) {
	reg := telemetry.New()
	det := NewDetector(DetectorConfig{Registry: reg, Window: 8, MinHistory: 4})
	st := mustStore(t, Config{Registry: reg, Detector: det,
		Tiers: []Tier{{Every: 1, Len: 16}, {Every: 4, Len: 8}}})
	c := reg.Counter("c_total", "stream", "a")
	h := reg.Histogram("lat_seconds", []float64{0.1, 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Observe(0.05)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st.Query(Q{Name: "c_total", Tier: 1})
					st.Dump(0, 4)
					st.ExcerptFor([]string{"c"}, []string{"a"}, 8)
					det.Findings()
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		st.Tick()
	}
	close(stop)
	wg.Wait()
}

// TestExcerptMatching: a spec names one series exactly — `name` the
// unlabeled one, `name{labels}` that label set and no other — and a
// stream ID pulls every series labeled with it.
func TestExcerptMatching(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("audit_ticks_total").Inc()
	reg.Counter("audit_ticks_total", "shard", "1").Inc()
	reg.Histogram("frame_seconds", []float64{1}, "kind", "message").Observe(0.5)
	reg.Histogram("frame_seconds", []float64{1}, "kind", "query").Observe(0.5)
	reg.Counter("other_total").Inc()
	reg.Gauge("queue", "stream", "s9").Set(1)
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 8}}})
	st.Tick()
	ex := st.ExcerptFor([]string{"audit_ticks", "audit_ticks_total", `frame_seconds{kind="message"}`}, []string{"s9"}, 8)
	var got []string
	for _, s := range ex.Series {
		got = append(got, s.Name+s.Labels)
	}
	want := []string{"audit_ticks_total", `frame_seconds{kind="message"}`, `queue{stream="s9"}`}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("excerpt picked %v, want %v", got, want)
	}
}

func TestAnomalyDetector(t *testing.T) {
	reg := telemetry.New()
	c := reg.Counter("events_total")
	det := NewDetector(DetectorConfig{Registry: reg, Window: 32, MinHistory: 8, Z: 6})
	st := mustStore(t, Config{Registry: reg, Detector: det, Tiers: []Tier{{Every: 1, Len: 64}}})

	for i := 0; i < 40; i++ { // steady 2 events per tick
		c.Add(2)
		st.Tick()
	}
	if n := det.Total(); n != 0 {
		t.Fatalf("steady traffic flagged %d anomalies", n)
	}
	c.Add(500) // burst
	st.Tick()
	if n := det.Total(); n != 1 {
		t.Fatalf("burst flagged %d anomalies, want 1", n)
	}
	f := det.Findings()
	if len(f) != 1 || f[0].Name != "events_total" || f[0].Value != 500 || f[0].Median != 2 {
		t.Errorf("finding = %+v", f)
	}
	// The burst itself must not poison the baseline: the next steady
	// tick is judged against a median still at 2 and stays clean.
	c.Add(2)
	st.Tick()
	if n := det.Total(); n != 1 {
		t.Errorf("post-burst steady tick flagged (total %d)", n)
	}
	d := st.Dump(0, 0)
	if d.AnomalyTotal != 1 || len(d.Anomalies) != 1 {
		t.Errorf("dump anomalies = (%d, %d), want (1, 1)", d.AnomalyTotal, len(d.Anomalies))
	}
}

// TestLateSeriesAligned: a series born mid-run gets correct EndTicks —
// its newest bucket closed at the store's latest boundary, not at its
// own birth-relative offset.
func TestLateSeriesAligned(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("early_total")
	st := mustStore(t, Config{Registry: reg, Tiers: []Tier{{Every: 1, Len: 16}}})
	for i := 0; i < 5; i++ {
		st.Tick()
	}
	reg.Counter("late_total").Inc()
	for i := 0; i < 3; i++ {
		st.Tick()
	}
	q := st.Query(Q{Name: "late_total"})
	pts := q[0].Points
	if len(pts) != 3 {
		t.Fatalf("late series has %d buckets, want 3", len(pts))
	}
	if pts[len(pts)-1].EndTick != 8 || pts[0].EndTick != 6 {
		t.Errorf("late series spans ticks %d..%d, want 6..8", pts[0].EndTick, pts[len(pts)-1].EndTick)
	}
}
