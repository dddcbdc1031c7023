package main

import (
	"math"
	"testing"
)

const sampleExposition = `# HELP corrections_sent_total corrections applied per stream
# TYPE corrections_sent_total counter
corrections_sent_total{stream="c0-s1"} 12
corrections_sent_total{stream="c1-s2"} 30
corrections_sent_total{stream="odd \"}\\ name"} 8
# TYPE streams_stale gauge
streams_stale 0
# TYPE wire_frame_handle_seconds histogram
wire_frame_handle_seconds_bucket{kind="query",le="0.0001"} 10
wire_frame_handle_seconds_bucket{kind="query",le="0.001"} 30 # {trace_id="77",stream="c0-s1"} 0.0004 1727683200.123
wire_frame_handle_seconds_bucket{kind="query",le="+Inf"} 40
wire_frame_handle_seconds_sum{kind="query"} 0.02
wire_frame_handle_seconds_count{kind="query"} 40
wire_frame_handle_seconds_bucket{kind="message-batch",le="0.0001"} 1
wire_frame_handle_seconds_bucket{kind="message-batch",le="0.001"} 1
wire_frame_handle_seconds_bucket{kind="message-batch",le="+Inf"} 1
wire_frame_handle_seconds_sum{kind="message-batch"} 5e-05
wire_frame_handle_seconds_count{kind="message-batch"} 1
`

func TestParsePromText(t *testing.T) {
	p, err := parsePromText(sampleExposition)
	if err != nil {
		t.Fatal(err)
	}
	if p.lines != 14 {
		t.Errorf("parsed %d series lines, want 14", p.lines)
	}
	if got := p.sum("corrections_sent_total"); got != 50 {
		t.Errorf("sum over labelled series = %v, want 50", got)
	}
	if got := p.sum("corrections_sent_total", "stream", "c1-s2"); got != 30 {
		t.Errorf("one label set = %v, want 30", got)
	}
	if got := p.sum("corrections_sent_total", "stream", `odd "}\ name`); got != 8 {
		t.Errorf("escaped label value = %v, want 8", got)
	}
	if got := p.sum("wire_duplicates_dropped_total"); got != 0 {
		t.Errorf("absent counter = %v, want 0", got)
	}
	if got := len(p.byName["corrections_sent_total"]); got != 3 {
		t.Errorf("series count = %d, want 3", got)
	}
}

func TestParsePromTextHistogramWithExemplar(t *testing.T) {
	p, err := parsePromText(sampleExposition)
	if err != nil {
		t.Fatal(err)
	}
	h := p.histogram("wire_frame_handle_seconds", "kind", "query")
	if h.Count != 40 || h.Sum != 0.02 {
		t.Fatalf("count %v sum %v, want 40 and 0.02", h.Count, h.Sum)
	}
	if len(h.Buckets) != 3 || h.Buckets[0].UpperBound != 0.0001 || !math.IsInf(h.Buckets[2].UpperBound, 1) {
		t.Fatalf("buckets %v", h.Buckets)
	}
	// The 0.001 bucket line carries an exemplar suffix; its count must be
	// 30, not the exemplar's value or timestamp.
	if h.Buckets[1].Count != 30 {
		t.Errorf("bucket with exemplar read as %v, want 30", h.Buckets[1].Count)
	}
	if got := h.Mean(); got != 0.0005 {
		t.Errorf("mean = %v, want 0.0005", got)
	}
	if got, want := h.Quantile(0.5), 0.0001+0.0009*10/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// Without a label filter the two kinds add up.
	if all := p.histogram("wire_frame_handle_seconds"); all.Count != 41 || all.Buckets[0].Count != 11 {
		t.Errorf("aggregate: count %v first bucket %v, want 41 and 11", all.Count, all.Buckets[0].Count)
	}
}

func TestParsePromTextRejectsMalformed(t *testing.T) {
	for _, text := range []string{"name\n", "name{a=\"b\" 1\n", "name{a=\"b\"}1\n", "name notanumber\n"} {
		if _, err := parsePromText(text); err == nil {
			t.Errorf("parsePromText(%q) succeeded", text)
		}
	}
}
