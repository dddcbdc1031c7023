package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// referencePrometheus is the exposition renderer as it stood before a
// scrape became one appended buffer — a Snapshot, fmt for every line, and
// string concatenation for a bucket's label set — kept as the oracle the
// buffered renderer must match byte for byte.
func referencePrometheus(r *Registry) string {
	formatValue := func(v float64) string {
		switch {
		case math.IsInf(v, 1):
			return "+Inf"
		case math.IsInf(v, -1):
			return "-Inf"
		case math.IsNaN(v):
			return "NaN"
		default:
			return strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	labelsWith := func(labels, key, value string) string {
		extra := key + `="` + value + `"`
		if labels == "" {
			return "{" + extra + "}"
		}
		return labels[:len(labels)-1] + "," + extra + "}"
	}
	escapeLabel := func(v string) string {
		if !strings.ContainsAny(v, "\\\"\n") {
			return v
		}
		return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
	}
	samples := r.Snapshot()
	helps := make(map[string]string)
	r.mu.RLock()
	for name, f := range r.families {
		if f.help != "" {
			helps[name] = f.help
		}
	}
	r.mu.RUnlock()

	var b strings.Builder
	lastName := ""
	for _, s := range samples {
		if s.Name != lastName {
			if h := helps[s.Name]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
			lastName = s.Name
		}
		switch s.Kind {
		case KindHistogram:
			for _, bk := range s.Buckets {
				fmt.Fprintf(&b, "%s_bucket%s %d",
					s.Name, labelsWith(s.Labels, "le", formatValue(bk.UpperBound)), bk.Count)
				if ex := bk.Exemplar; ex != nil {
					fmt.Fprintf(&b, " # {trace_id=\"%d\",stream=\"%s\"} %s %s",
						ex.TraceID, escapeLabel(ex.StreamID), formatValue(ex.Value),
						strconv.FormatFloat(float64(ex.UnixNano)/1e9, 'f', 3, 64))
				}
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.Name, s.Labels, formatValue(s.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.Name, s.Labels, s.Count)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, s.Labels, formatValue(s.Value))
		}
	}
	return b.String()
}

// TestWritePrometheusMatchesReference: the buffered renderer writes the
// bytes the fmt renderer wrote, over every kind, labelled and bare series,
// help text, an escaped label, an exemplar (with an escaped stream) and
// ±Inf, NaN, -0 and large values.
func TestWritePrometheusMatchesReference(t *testing.T) {
	defer func(old func() int64) { nowNano = old }(nowNano)
	nowNano = func() int64 { return 1_700_000_000_123_456_789 }
	r := New()
	r.Counter("corrections_sent_total", "shard", "0").Add(7)
	r.Counter("corrections_sent_total", "shard", "1").Add(1 << 62)
	r.Counter("bare_total").Inc()
	r.Help("corrections_sent_total", "corrections applied, per lock stripe")
	r.Counter("paths_total", "path", "a\"b\\c\nd", "method", "GET").Inc()
	for v, labels := range map[float64][]string{math.Inf(1): {"v", "pinf"}, math.Inf(-1): {"v", "ninf"},
		math.NaN(): {"v", "nan"}, math.Copysign(0, -1): {"v", "negzero"}, 1e-7: {"v", "tiny"}, 123456789.25: {"v", "big"}} {
		r.Gauge("edge", labels...).Set(v)
	}
	r.Help("edge", `gauge "edge" values`)
	lat := r.Histogram("query_latency_seconds", LatencyBuckets, "shard", "3")
	lat.EnableExemplars()
	lat.ObserveExemplar(0.002, 42, `s"1`)
	lat.ObserveExemplar(7, 0, "s2")
	lat.Observe(3e-5)
	bare := r.Histogram("bare_hist", []float64{-1, 0, 2.5})
	bare.Observe(-3)
	bare.Observe(math.Inf(1))
	r.Help("bare_hist", "a histogram without labels")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := referencePrometheus(r); b.String() != want {
		t.Fatalf("exposition differs from the reference:\n%s\nwant:\n%s", b.String(), want)
	}
	// A second scrape, now sized by the first, is the same bytes.
	var again strings.Builder
	if err := r.WritePrometheus(&again); err != nil || again.String() != b.String() {
		t.Fatalf("second scrape differs (err %v):\n%s", err, again.String())
	}
}
