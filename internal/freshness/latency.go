// The /debug/latency surface: a JSON snapshot of the freshness state —
// histogram quantiles, resident exemplars, and per-connection clock-skew
// estimates — rendered by `streamkf top`'s latency pane.

package freshness

import (
	"encoding/json"
	"math"
	"net/http"

	"kalmanstream/internal/telemetry"
)

// ExemplarRow is one bucket's resident exemplar in a snapshot.
type ExemplarRow struct {
	// Bound is the bucket's upper bound in seconds (+Inf rendered as a
	// large sentinel by JSON consumers; math.Inf is not encodable).
	Bound float64 `json:"bound"`
	// TraceID resolves against the trace journal (0 = untraced).
	TraceID uint64 `json:"trace"`
	// Stream names the sampled stream.
	Stream string `json:"stream"`
	// Value is the sampled observation in seconds.
	Value float64 `json:"value"`
	// UnixNano is when the exemplar was stored.
	UnixNano int64 `json:"wall"`
}

// HistSummary summarizes one freshness histogram for the snapshot.
type HistSummary struct {
	Count     int64         `json:"count"`
	P50       float64       `json:"p50"`
	P95       float64       `json:"p95"`
	P99       float64       `json:"p99"`
	Exemplars []ExemplarRow `json:"exemplars,omitempty"`
}

// ConnSkew is one connection's skew estimate, provided by the hosting
// wire server.
type ConnSkew struct {
	// Remote is the connection's peer address.
	Remote string `json:"remote"`
	// OffsetSeconds is the smoothed clock offset.
	OffsetSeconds float64 `json:"offset_seconds"`
	// RTTSeconds is the last reported round trip.
	RTTSeconds float64 `json:"rtt_seconds"`
	// Samples is the number of pings folded in.
	Samples int64 `json:"samples"`
}

// Snapshot is the /debug/latency document.
type Snapshot struct {
	E2E         HistSummary `json:"e2e_latency"`
	Staleness   HistSummary `json:"query_staleness"`
	SkewSeconds float64     `json:"clock_skew_seconds"`
	Conns       []ConnSkew  `json:"conns,omitempty"`
}

// summarize converts a live histogram into a HistSummary, using the same
// fixed-bucket quantile interpolation every other exposition uses.
func summarize(h *telemetry.Histogram) HistSummary {
	nb := h.NumBuckets()
	cum := h.ReadBuckets(make([]int64, nb))
	for i := 1; i < nb; i++ {
		cum[i] += cum[i-1]
	}
	bounds := h.Bounds()
	out := HistSummary{
		Count: cum[nb-1],
		P50:   telemetry.Quantile(bounds, cum, 0.5),
		P95:   telemetry.Quantile(bounds, cum, 0.95),
		P99:   telemetry.Quantile(bounds, cum, 0.99),
	}
	for i := 0; i < nb; i++ {
		ex := h.BucketExemplar(i)
		if ex == nil {
			continue
		}
		ub := math.MaxFloat64 // JSON-encodable stand-in for +Inf
		if i < len(bounds) {
			ub = bounds[i]
		}
		out.Exemplars = append(out.Exemplars, ExemplarRow{
			Bound: ub, TraceID: ex.TraceID, Stream: ex.StreamID,
			Value: ex.Value, UnixNano: ex.UnixNano,
		})
	}
	return out
}

// SnapshotNow assembles the latency snapshot. conns may be nil (the
// simulation has no connections).
func (r *Recorder) SnapshotNow(conns func() []ConnSkew) Snapshot {
	s := Snapshot{
		E2E:       summarize(r.e2e),
		Staleness: summarize(r.staleness),
	}
	if conns != nil {
		s.Conns = conns()
		// The gauge holds the most recent write; recompute from the conn
		// list so the snapshot is self-consistent even between pings.
		for _, c := range s.Conns {
			s.SkewSeconds = c.OffsetSeconds
		}
	}
	return s
}

// Handler serves the latency snapshot as JSON at /debug/latency.
func Handler(r *Recorder, conns func() []ConnSkew) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if r == nil {
			http.Error(w, "freshness recorder not running", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.SnapshotNow(conns))
	})
}
