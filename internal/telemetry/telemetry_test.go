package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("events_total", "stream", "s1")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels resolves to the same series.
	if r.Counter("events_total", "stream", "s1") != c {
		t.Fatal("lookup did not return the existing counter")
	}
	// Different labels are a different series.
	if r.Counter("events_total", "stream", "s2") == c {
		t.Fatal("distinct labels shared a series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 108 {
		t.Fatalf("sum = %g", got)
	}
	var s Sample
	for _, smp := range r.Snapshot() {
		if smp.Name == "lat" {
			s = smp
		}
	}
	// Cumulative: ≤1 → 2 obs (0.5, 1), ≤2 → 4, ≤5 → 5, +Inf → 6.
	want := []int64{2, 4, 5, 6}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (≤%g) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket bound not +Inf")
	}
	if s.Mean() != 18 {
		t.Fatalf("mean = %g", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q", []float64{10, 20, 30, 40})
	for i := 0; i < 80; i++ {
		h.Observe(float64(i%40) + 0.5) // uniform over (0, 40), each value twice
	}
	var s Sample
	for _, smp := range r.Snapshot() {
		if smp.Name == "q" {
			s = smp
		}
	}
	if p50 := s.Quantile(0.5); math.Abs(p50-20) > 2.5 {
		t.Fatalf("p50 = %g, want ≈20", p50)
	}
	if p95 := s.Quantile(0.95); math.Abs(p95-38) > 2.5 {
		t.Fatalf("p95 = %g, want ≈38", p95)
	}
}

func TestHistogramBucketReaders(t *testing.T) {
	r := New()
	h := r.Histogram("q", []float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(15)
	h.Observe(99) // lands in the implicit +Inf bucket

	if got := h.NumBuckets(); got != 3 {
		t.Fatalf("NumBuckets = %d, want 3 (two bounds + Inf)", got)
	}
	bounds := h.Bounds()
	if len(bounds) != 2 || bounds[0] != 10 || bounds[1] != 20 {
		t.Fatalf("Bounds = %v, want the explicit bounds [10 20] (+Inf implicit)", bounds)
	}
	dst := make([]int64, h.NumBuckets())
	got := h.ReadBuckets(dst)
	if &got[0] != &dst[0] {
		t.Fatal("ReadBuckets did not fill the caller's slice")
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("ReadBuckets = %v, want non-cumulative [1 2 1]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length dst did not panic")
		}
	}()
	h.ReadBuckets(make([]int64, 1))
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x")
}

func TestSnapshotSorted(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a", "stream", "z").Inc()
	r.Counter("a", "stream", "m").Inc()
	s := r.Snapshot()
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	if s[0].Name != "a" || s[0].Labels != `{stream="m"}` ||
		s[1].Labels != `{stream="z"}` || s[2].Name != "b" {
		t.Fatalf("unsorted snapshot: %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("corrections_sent_total", "stream", "s1").Add(7)
	r.Help("corrections_sent_total", "corrections applied per stream")
	r.Gauge("delta", "stream", "s1").Set(0.5)
	r.Histogram("query_latency_seconds", []float64{0.001, 0.01}).Observe(0.002)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP corrections_sent_total corrections applied per stream",
		"# TYPE corrections_sent_total counter",
		`corrections_sent_total{stream="s1"} 7`,
		"# TYPE delta gauge",
		`delta{stream="s1"} 0.5`,
		"# TYPE query_latency_seconds histogram",
		`query_latency_seconds_bucket{le="0.001"} 0`,
		`query_latency_seconds_bucket{le="0.01"} 1`,
		`query_latency_seconds_bucket{le="+Inf"} 1`,
		"query_latency_seconds_sum 0.002",
		"query_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("c", "path", `a"b\c`).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c{path="a\"b\\c"} 1`) {
		t.Fatalf("bad escaping:\n%s", b.String())
	}
}

func TestWriteVars(t *testing.T) {
	r := New()
	r.Counter("hits_total", "stream", "s").Add(3)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteVars(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"hits_total{stream=\"s\"}": 3`) {
		t.Fatalf("vars missing counter:\n%s", out)
	}
	if !strings.Contains(out, `"count": 1`) || !strings.Contains(out, `"mean": 0.5`) {
		t.Fatalf("vars missing histogram summary:\n%s", out)
	}
	for _, q := range []string{`"p50"`, `"p95"`, `"p99"`} {
		if !strings.Contains(out, q) {
			t.Fatalf("vars missing %s quantile:\n%s", q, out)
		}
	}
}

func TestReset(t *testing.T) {
	r := New()
	c := r.Counter("n")
	c.Add(5)
	r.Reset()
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("snapshot after reset has %d samples", got)
	}
	// Detached handles keep working but a fresh lookup is a new series.
	c.Inc()
	if r.Counter("n").Value() != 0 {
		t.Fatal("fresh counter after reset not zero")
	}
}
