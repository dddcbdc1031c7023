package main

import "testing"

// TestMetricSum: the recovery verdict reads audit_delta_violations_total
// (and the WAL counters) by summing whatever label sets the exposition
// carries, so a metric reads the same as one series, as a {shard} family,
// or as a mix — and a name that is only a prefix of another never counts.
func TestMetricSum(t *testing.T) {
	for _, c := range []struct {
		label, text string
		want        float64
	}{
		{"absent", "other_total 4\n", 0},
		{"unlabelled", "# TYPE m_total counter\nm_total 3\n", 3},
		{"labelled", "m_total{stream=\"a\"} 2\nm_total{stream=\"b\"} 5\n", 7},
		{"mixed", "m_total 1\nm_total{shard=\"0\"} 2\nm_total{shard=\"1\",direction=\"in\"} 4\n", 7},
		{"prefix", "m_total_more 9\nm_total_more{x=\"y\"} 9\nm_total 1\n", 1},
	} {
		if got := metricSum(c.text, "m_total"); got != c.want {
			t.Errorf("%s: metricSum = %v, want %v", c.label, got, c.want)
		}
	}
}
