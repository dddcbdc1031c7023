// Range queries over the store: per-series bucket extraction with
// tick-aligned timestamps, cross-label aggregation, the full-dump
// payload served at /debug/history, and the incident-bundle excerpt.
// Queries allocate freely — they run per HTTP request or per incident,
// never per tick.

package history

import (
	"sort"
	"strings"

	"kalmanstream/internal/telemetry"
)

// BucketPoint is one closed bucket of one series. Which fields are
// meaningful depends on the series kind:
//
//	counter   Value (delta over the bucket) and Rate (delta / width)
//	gauge     Value (last), Min, Max
//	histogram Count, Sum, P50, P99 (quantiles within the bucket)
type BucketPoint struct {
	// EndTick is the store tick at which the bucket closed.
	EndTick int64   `json:"end_tick"`
	Value   float64 `json:"value"`
	Rate    float64 `json:"rate,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Count   float64 `json:"count,omitempty"`
	Sum     float64 `json:"sum,omitempty"`
	P50     float64 `json:"p50,omitempty"`
	P99     float64 `json:"p99,omitempty"`
}

// SeriesRange is one series' history at one tier, oldest point first.
type SeriesRange struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Tier indexes the store's cascade; Every is that tier's bucket
	// width in ticks.
	Tier   int           `json:"tier"`
	Every  int64         `json:"every"`
	Points []BucketPoint `json:"points"`
}

// Q selects series and a window. The zero value selects every series'
// full finest-tier history.
type Q struct {
	// Name filters on the exact series name ("" = any).
	Name string
	// Labels filters on the exact rendered label set ("" = any).
	Labels string
	// LabelContains filters on a label-set substring, e.g.
	// `stream="s-3"` ("" = no filter).
	LabelContains string
	// Tier selects the resolution tier (0 = finest).
	Tier int
	// N limits to the most recent N buckets (0 = the whole ring).
	N int
}

func kindName(k telemetry.Kind) string {
	switch k {
	case telemetry.KindCounter:
		return "counter"
	case telemetry.KindGauge:
		return "gauge"
	case telemetry.KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// sortRanges orders extracted ranges by name then label set. The store
// tracks series in scrape order, which follows the registry's map
// iteration — sorting on the way out keeps every query, dump, and
// excerpt deterministic across runs and restarts.
func sortRanges(rs []SeriesRange) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Name != rs[j].Name {
			return rs[i].Name < rs[j].Name
		}
		return rs[i].Labels < rs[j].Labels
	})
}

// Query returns the matching series' bucket history, sorted by name
// then label set. An out-of-range tier returns nil.
func (st *Store) Query(q Q) []SeriesRange {
	st.mu.Lock()
	defer st.mu.Unlock()
	if q.Tier < 0 || q.Tier >= len(st.cfg.Tiers) {
		return nil
	}
	var out []SeriesRange
	for _, s := range st.order {
		if q.Name != "" && s.name != q.Name {
			continue
		}
		if q.Labels != "" && s.labels != q.Labels {
			continue
		}
		if q.LabelContains != "" && !strings.Contains(s.labels, q.LabelContains) {
			continue
		}
		out = append(out, st.rangeOf(s, q.Tier, q.N))
	}
	sortRanges(out)
	return out
}

// rangeOf extracts one series' last n buckets at one tier. Caller
// holds mu.
func (st *Store) rangeOf(s *seriesState, tier, n int) SeriesRange {
	t := st.cfg.Tiers[tier]
	r := &s.rings[tier]
	avail := r.avail()
	m := avail
	if n > 0 && int64(n) < m {
		m = int64(n)
	}
	sr := SeriesRange{
		Name:   s.name,
		Labels: s.labels,
		Kind:   kindName(s.kind),
		Tier:   tier,
		Every:  t.Every,
		Points: make([]BucketPoint, 0, m),
	}
	// The newest bucket of every series closed at the tier's most
	// recent boundary; older buckets step back one width at a time.
	lastClose := st.tick - st.tick%t.Every
	for j := m - 1; j >= 0; j-- { // j = buckets before the newest
		w := r.bucketAt(j)
		p := BucketPoint{EndTick: lastClose - j*t.Every}
		switch s.kind {
		case telemetry.KindCounter:
			p.Value = w[0]
			p.Rate = w[0] / float64(t.Every)
		case telemetry.KindGauge:
			p.Value, p.Min, p.Max = w[0], w[1], w[2]
		case telemetry.KindHistogram:
			p.Count, p.Sum = w[0], w[1]
			cum := w[histExtra:]
			p.P50 = telemetry.Quantile(s.bounds, cum, 0.50)
			p.P99 = telemetry.Quantile(s.bounds, cum, 0.99)
		}
		sr.Points = append(sr.Points, p)
	}
	return sr
}

// Merge aggregates several same-tier ranges into one — summing
// counters and histograms across label sets, taking the min/max
// envelope (and summed last) for gauges. Points align on EndTick;
// quantiles do not survive merging and are zeroed. Merging ranges of
// different kinds or tiers returns the first range unchanged.
func Merge(ranges []SeriesRange) SeriesRange {
	if len(ranges) == 0 {
		return SeriesRange{}
	}
	out := ranges[0]
	for _, r := range ranges[1:] {
		if r.Kind != out.Kind || r.Tier != out.Tier {
			return ranges[0]
		}
	}
	byTick := make(map[int64]*BucketPoint)
	var ticks []int64
	for _, r := range ranges {
		for _, p := range r.Points {
			dst, ok := byTick[p.EndTick]
			if !ok {
				cp := p
				cp.P50, cp.P99 = 0, 0
				byTick[p.EndTick] = &cp
				ticks = append(ticks, p.EndTick)
				continue
			}
			switch out.Kind {
			case "counter":
				dst.Value += p.Value
				dst.Rate += p.Rate
			case "gauge":
				dst.Value += p.Value
				if p.Min < dst.Min {
					dst.Min = p.Min
				}
				if p.Max > dst.Max {
					dst.Max = p.Max
				}
			case "histogram":
				dst.Count += p.Count
				dst.Sum += p.Sum
			}
		}
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	out.Labels = ""
	out.Points = make([]BucketPoint, 0, len(ticks))
	for _, tk := range ticks {
		out.Points = append(out.Points, *byTick[tk])
	}
	return out
}

// DumpPayload is the whole-store view: the /debug/history index, and
// the artifact the chaos smoke run writes next to its bundles.
type DumpPayload struct {
	Tick        int64     `json:"tick"`
	Tiers       []Tier    `json:"tiers"`
	Closed      []int64   `json:"closed"`
	SeriesCount int       `json:"series_count"`
	Dropped     float64   `json:"dropped,omitempty"`
	Anomalies   []Finding `json:"anomalies,omitempty"`
	// AnomalyTotal is the lifetime count (the ring above holds only the
	// most recent findings).
	AnomalyTotal int64         `json:"anomaly_total,omitempty"`
	Series       []SeriesRange `json:"series,omitempty"`
}

// Dump captures store metadata, detector findings, and — when n != 0 —
// every series' last n buckets at the given tier (n < 0 = full ring).
func (st *Store) Dump(tier, n int) DumpPayload {
	st.mu.Lock()
	p := DumpPayload{
		Tick:        st.tick,
		Tiers:       st.cfg.Tiers,
		Closed:      append([]int64(nil), st.closed...),
		SeriesCount: len(st.order),
		Dropped:     st.telDropped.Value(),
	}
	if n != 0 && tier >= 0 && tier < len(st.cfg.Tiers) {
		if n < 0 {
			n = 0 // rangeOf treats 0 as "whole ring"
		}
		p.Series = make([]SeriesRange, 0, len(st.order))
		for _, s := range st.order {
			p.Series = append(p.Series, st.rangeOf(s, tier, n))
		}
		sortRanges(p.Series)
	}
	st.mu.Unlock()
	if d := st.cfg.Detector; d != nil {
		p.Anomalies = d.Findings()
		p.AnomalyTotal = d.Total()
	}
	return p
}

// Excerpt is the trailing history embedded in an incident bundle: the
// alert's SLO series plus the top offender streams' series, at the
// finest tier.
type Excerpt struct {
	// Tick is the store tick at capture.
	Tick   int64         `json:"tick"`
	Series []SeriesRange `json:"series"`
}

// ExcerptFor extracts the last n finest-tier buckets of every series
// named by one of the specs — `name` or `name{labels}`, the form an SLO
// names its series in, matched exactly — or labeled with one of the
// wanted stream IDs.
func (st *Store) ExcerptFor(specs, streams []string, n int) Excerpt {
	st.mu.Lock()
	defer st.mu.Unlock()
	ex := Excerpt{Tick: st.tick}
	for _, s := range st.order {
		if !matchSeries(s, specs, streams) {
			continue
		}
		ex.Series = append(ex.Series, st.rangeOf(s, 0, n))
	}
	sortRanges(ex.Series)
	return ex
}

func matchSeries(s *seriesState, specs, streams []string) bool {
	for _, spec := range specs {
		if keyOf(spec) == (seriesKey{s.name, s.labels}) {
			return true
		}
	}
	for _, id := range streams {
		if id != "" && strings.Contains(s.labels, `stream="`+id+`"`) {
			return true
		}
	}
	return false
}
