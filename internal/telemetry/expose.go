package telemetry

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): # HELP/# TYPE headers per family, one line per
// series sorted by name then label set, and the _bucket/_sum/_count
// expansion for histograms — appended into one buffer, sized by the
// previous scrape, and written once. (strconv spells ±Inf and NaN as the
// format does.)
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := slices.SortedFunc(maps.Values(r.families), func(a, b *family) int { return strings.Compare(a.name, b.name) })
	b := make([]byte, 0, r.scrapeSize.Load())
	put := func(parts ...string) {
		for _, p := range parts {
			b = append(b, p...)
		}
	}
	var ss []*series
	for _, f := range fams {
		if f.help != "" {
			put("# HELP ", f.name, " ", f.help, "\n")
		}
		put("# TYPE ", f.name, " ", f.kind.String(), "\n")
		ss = slices.AppendSeq(ss[:0], maps.Values(f.series))
		slices.SortFunc(ss, func(a, b *series) int { return strings.Compare(a.labels, b.labels) })
		for _, s := range ss {
			switch f.kind {
			case KindCounter:
				put(f.name, s.labels, " ")
				b = strconv.AppendFloat(b, float64(s.ctr.Value()), 'g', -1, 64)
			case KindGauge:
				put(f.name, s.labels, " ")
				b = strconv.AppendFloat(b, s.gauge.Value(), 'g', -1, 64)
			case KindHistogram:
				h, cum := s.hist, int64(0)
				for i := range h.buckets {
					cum += h.buckets[i].Load()
					if put(f.name, "_bucket{"); s.labels != "" {
						put(s.labels[1:len(s.labels)-1], ",")
					}
					b = strconv.AppendFloat(append(b, `le="`...), h.upper(i), 'g', -1, 64)
					b = strconv.AppendInt(append(b, `"} `...), cum, 10)
					if ex := h.BucketExemplar(i); ex != nil {
						// OpenMetrics exemplar suffix: the bucket's sampled trace and stream.
						b = strconv.AppendUint(append(b, ` # {trace_id="`...), ex.TraceID, 10)
						put(`",stream="`, labelEscaper.Replace(ex.StreamID), `"} `)
						b = strconv.AppendFloat(append(strconv.AppendFloat(b, ex.Value, 'g', -1, 64), ' '), float64(ex.UnixNano)/1e9, 'f', 3, 64)
					}
					b = append(b, '\n')
				}
				put(f.name, "_sum", s.labels, " ")
				b = strconv.AppendFloat(b, h.Sum(), 'g', -1, 64)
				put("\n", f.name, "_count", s.labels, " ")
				b = strconv.AppendInt(b, cum, 10)
			}
			b = append(b, '\n')
		}
	}
	r.mu.RUnlock()
	r.scrapeSize.Store(int64(len(b)))
	_, err := w.Write(b)
	return err
}

// histVars is the JSON shape of a histogram in WriteVars output. The
// quantiles come from Sample.Quantile — the same fixed-bucket linear
// interpolation every other consumer (tables, /debug/health) uses, so
// the percentile math agrees across expositions.
type histVars struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Mean    float64          `json:"mean"`
	P50     float64          `json:"p50"`
	P95     float64          `json:"p95"`
	P99     float64          `json:"p99"`
	Buckets map[string]int64 `json:"buckets"`
}

// WriteVars renders every metric as one JSON object keyed by
// "name{labels}" — an expvar-style view for /debug/vars.
func (r *Registry) WriteVars(w io.Writer) error {
	out := make(map[string]any)
	for _, s := range r.Snapshot() {
		key := s.Name + s.Labels
		switch s.Kind {
		case KindHistogram:
			buckets := make(map[string]int64, len(s.Buckets))
			for _, bk := range s.Buckets {
				buckets[strconv.FormatFloat(bk.UpperBound, 'g', -1, 64)] = bk.Count
			}
			out[key] = histVars{Count: s.Count, Sum: s.Sum, Mean: s.Mean(),
				P50: s.Quantile(0.5), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
				Buckets: buckets}
		default:
			out[key] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
