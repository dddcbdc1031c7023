// Package telemetry is the runtime instrumentation layer: named atomic
// counters, gauges, and fixed-bucket histograms in a registry, with a
// consistent Snapshot API and Prometheus text exposition (see expose.go).
//
// It is deliberately separate from internal/harness's metrics, which do
// offline *evaluation* accounting (RMSE against ground truth, bound violations)
// for regenerated tables. Telemetry answers a different question — "what
// is the running system doing right now?" — and therefore must be cheap
// enough for hot paths (a handful of atomic operations per event), safe
// for concurrent use, and readable while the system runs. Like the rest
// of the repo it is stdlib-only.
//
// Usage: resolve handles once, then update them on the hot path.
//
//	sent := telemetry.Default.Counter("corrections_sent_total", "stream", id)
//	...
//	sent.Inc()
//
// Handles stay valid after Reset, but a registry forgets detached handles:
// Reset is for run-scoped accounting (streamkf run -stats), not for live
// servers.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0; negative deltas are a programming error and
// panic, since a decreasing counter corrupts every rate computed from it).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("telemetry: Counter.Add(%d): counters only go up", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (Prometheus
// convention: bucket i counts observations ≤ bound i, with an implicit
// +Inf bucket). Observe is a bucket search plus two atomic updates; the
// sum is accumulated via CAS so concurrent observers never lose updates.
//
// A histogram can additionally retain exemplars — one sampled resident
// observation per bucket, carrying the trace ID and stream ID that
// produced it — so a quantile spike on a scrape resolves directly to a
// trace-journal entry. Exemplar storage is off until EnableExemplars;
// plain Observe never touches it, so histograms without exemplars pay
// nothing.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf after the last
	buckets []atomic.Int64
	sumBits atomic.Uint64
	// exemplars is nil until EnableExemplars; afterwards one slot per
	// bucket, each holding an immutable *Exemplar replaced wholesale so
	// readers never see a torn record.
	exemplars []atomic.Pointer[Exemplar]
	exEnabled atomic.Bool
}

// Exemplar is one sampled observation retained for a histogram bucket:
// enough identity (trace ID, stream ID) to pivot from a latency bucket
// to the trace-journal entry and top-k offender behind it.
type Exemplar struct {
	// TraceID is the in-band lifecycle trace ID of the sampled
	// observation (0 when the observation was untraced).
	TraceID uint64
	// StreamID names the stream the observation belongs to.
	StreamID string
	// Value is the observed value.
	Value float64
	// UnixNano is the wall-clock time the exemplar was stored.
	UnixNano int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// bucketFor returns the bucket index for v.
// Bucket counts are small (≤ ~16); a full branchless scan beats both
// binary search and an early-exit loop on the hot protocol paths —
// the comparison compiles to a flag-set with no data-dependent
// branch, so the loop never mispredicts. Same result as
// sort.SearchFloat64s: smallest i with bounds[i] ≥ v.
func (h *Histogram) bucketFor(v float64) int {
	i := 0
	for _, b := range h.bounds {
		if b < v {
			i++
		}
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.bucketFor(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// EnableExemplars allocates the per-bucket exemplar slots. Call once,
// before concurrent use (typically right after the Histogram lookup);
// calling it again is a no-op. Histograms that never enable exemplars
// keep the plain two-atomic Observe cost.
func (h *Histogram) EnableExemplars() {
	if h.exEnabled.CompareAndSwap(false, true) {
		h.exemplars = make([]atomic.Pointer[Exemplar], len(h.buckets))
	}
}

// exemplarSampleMask subsamples exemplar refreshes: once a bucket holds
// an exemplar, only every 64th observation landing there replaces it,
// bounding the stamped hot path's allocation rate while keeping the
// resident exemplar recent under steady traffic.
const exemplarSampleMask = 63

// ObserveExemplar records one value and, subject to sampling, retains
// (traceID, streamID, v) as the bucket's exemplar. Without a prior
// EnableExemplars it is exactly Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64, streamID string) {
	i := h.bucketFor(v)
	n := h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if !h.exEnabled.Load() {
		return
	}
	slot := &h.exemplars[i]
	if slot.Load() != nil && n&exemplarSampleMask != 0 {
		return
	}
	slot.Store(&Exemplar{TraceID: traceID, StreamID: streamID, Value: v, UnixNano: nowNano()})
}

// nowNano is time.Now().UnixNano(), indirected for tests.
var nowNano = func() int64 { return time.Now().UnixNano() }

// BucketExemplar returns bucket i's resident exemplar, or nil when
// exemplars are disabled or none has landed there yet. The returned
// record is immutable.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if !h.exEnabled.Load() || i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations. Every observation lands in
// exactly one raw bucket, so the total is the bucket sum — keeping a
// separate count would cost a third atomic update on the hot path.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// upper returns bucket i's upper bound, +Inf for the last.
func (h *Histogram) upper(i int) float64 {
	if i < len(h.bounds) {
		return h.bounds[i]
	}
	return math.Inf(1)
}

// NumBuckets returns the number of buckets including the implicit +Inf
// bucket — the length ReadBuckets needs.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Bounds returns a copy of the sorted upper bounds (the +Inf bucket is
// implicit after the last).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// ReadBuckets fills dst with the raw (non-cumulative) per-bucket counts
// and returns it. dst must have length NumBuckets; the call performs no
// allocation.
func (h *Histogram) ReadBuckets(dst []int64) []int64 {
	if len(dst) != len(h.buckets) {
		panic(fmt.Sprintf("telemetry: ReadBuckets dst length %d, want %d", len(dst), len(h.buckets)))
	}
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
	return dst
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper bound (+Inf for the last bucket).
	UpperBound float64
	// Count is the number of observations ≤ UpperBound (cumulative,
	// Prometheus-style).
	Count int64
	// Exemplar is the bucket's sampled resident observation, nil when the
	// histogram has exemplars disabled or none has landed here yet. The
	// pointee is immutable and shared with the live histogram.
	Exemplar *Exemplar
}

// Default bucket layouts for the metrics this repo emits.
var (
	// LatencyBuckets covers query latencies in seconds, 10µs–1s.
	LatencyBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1}
	// StalenessBuckets covers server staleness in ticks.
	StalenessBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	// RatioBuckets covers deviation/δ ratios; suppressed ticks land ≤ 1.
	RatioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.5, 2, 5}
	// BatchSizeBuckets covers messages carried per coalesced wire frame.
	BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// series is one (name, labels) time series.
type series struct {
	labels string // canonical rendered label set, `{k="v",…}` or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups every series sharing a metric name; all series in a
// family have the same kind (and bucket layout, for histograms).
type family struct {
	name   string
	kind   Kind
	help   string
	bounds []float64
	series map[string]*series
}

// Registry is a named collection of metrics. The zero value is not
// usable; call New. Lookup methods are get-or-create and safe for
// concurrent use; the returned handles are lock-free.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	scrapeSize atomic.Int64 // the last scrape's length: the next one's capacity
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry. Instrumented packages fall back
// to it when no explicit registry is configured, so a binary gets a
// coherent picture without plumbing.
var Default = New()

// renderLabels canonicalizes alternating key, value pairs into the
// Prometheus label form `{k="v",…}` with keys sorted.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label pairs %q", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the Prometheus text format; a
// value with nothing to escape comes back as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// lookup returns the series for (name, labels), creating family and
// series as needed and enforcing kind consistency.
func (r *Registry) lookup(name string, kind Kind, bounds []float64, labelPairs []string) *series {
	labels := renderLabels(labelPairs)
	r.mu.RLock()
	f := r.families[name]
	var s *series
	if f != nil {
		s = f.series[labels]
	}
	r.mu.RUnlock()
	if s != nil {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s = f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		switch kind {
		case KindCounter:
			s.ctr = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[labels] = s
	}
	return s
}

// Counter returns the counter for name and the given label pairs
// ("key", "value", …), creating it on first use.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	return r.lookup(name, KindCounter, nil, labelPairs).ctr
}

// Gauge returns the gauge for name and label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	return r.lookup(name, KindGauge, nil, labelPairs).gauge
}

// Histogram returns the histogram for name and label pairs. The bucket
// bounds are fixed by the first call for a name; later calls reuse them.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	return r.lookup(name, KindHistogram, bounds, labelPairs).hist
}

// Help attaches help text rendered in the Prometheus exposition.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = text
	}
}

// Reset forgets every metric. Live handles keep working but are no
// longer visible in snapshots; intended for run-scoped accounting.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = make(map[string]*family)
}

// Sample is one time series in a snapshot.
type Sample struct {
	Name string
	// Labels is the canonical rendered label set, `{k="v",…}` or "".
	Labels string
	Kind   Kind
	// Value is the counter or gauge value (0 for histograms).
	Value float64
	// Count and Sum summarize a histogram (0 otherwise).
	Count int64
	Sum   float64
	// Buckets holds the cumulative histogram buckets (nil otherwise).
	Buckets []Bucket
}

// Mean returns a histogram sample's average observation (0 when empty).
func (s Sample) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of a histogram sample —
// see the package-level Quantile.
func (s Sample) Quantile(q float64) float64 {
	// Stack space for the layouts this repo emits (≤ 16 bounds); a wider
	// histogram spills to the heap.
	var bb [24]float64
	var cb [24]int64
	bounds, cum := bb[:0], cb[:0]
	for _, b := range s.Buckets {
		if !math.IsInf(b.UpperBound, 1) {
			bounds = append(bounds, b.UpperBound)
		}
		cum = append(cum, b.Count)
	}
	return Quantile(bounds, cum, q)
}

// Quantile is the one fixed-bucket quantile estimate every histogram
// surface uses (live samples, history windows, SLO windows): linear
// interpolation within the bucket containing rank q·total, exact only at
// bucket bounds. bounds holds the finite upper bounds in ascending order
// and cum the cumulative counts, one per bound followed by the +Inf
// bucket's. No mass — or the negative mass a counter reset leaves in a
// window of deltas — answers 0; a rank landing in the +Inf bucket clamps
// to the last finite bound, and one landing on an empty bucket answers
// that bucket's bound.
func Quantile[N int64 | float64](bounds []float64, cum []N, q float64) float64 {
	if len(cum) == 0 {
		return 0
	}
	total := float64(cum[len(cum)-1])
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for i := range cum {
		c := float64(cum[i])
		if c >= rank {
			if i >= len(bounds) {
				return lo
			}
			in := c - below
			if in <= 0 {
				return bounds[i]
			}
			return lo + (bounds[i]-lo)*(rank-below)/in
		}
		below = c
		if i < len(bounds) {
			lo = bounds[i]
		}
	}
	return lo
}

// SnapshotAppend appends a point-in-time copy of every metric to dst and
// returns the extended slice. Unlike Snapshot the result is NOT sorted
// (sorting allocates; key by Name+Labels instead of position), and dst's
// capacity is reused — including each overwritten element's Buckets
// backing array — so a per-tick scraper that passes last tick's slice
// back as dst[:0] reaches a zero-allocation steady state once every
// series has been seen. Concurrent updates during the walk may be
// partially included (each individual metric is read atomically).
func (r *Registry) SnapshotAppend(dst []Sample) []Sample {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Dormant elements between len(dst) and cap(dst) still hold the
	// previous scrape's samples, and their Buckets arrays are salvaged
	// for this scrape's histograms. Histograms are emitted FIRST so
	// every salvage happens before counter/gauge appends overwrite
	// dormant slots (and with it any array the cursor hadn't reached):
	// the k-th histogram steals from the k-th salvageable slot, which is
	// always at or past the append position, so in the steady state no
	// array is ever clobbered and the recycled slice allocates nothing —
	// regardless of how map iteration shuffles series between calls.
	base := dst[:cap(dst)]
	cursor := len(dst)
	for _, f := range r.families {
		if f.kind != KindHistogram {
			continue
		}
		for _, s := range f.series {
			smp := Sample{Name: f.name, Labels: s.labels, Kind: f.kind}
			var buckets []Bucket
			if cursor < len(dst) {
				cursor = len(dst) // never steal from a slot already rewritten
			}
			for ; cursor < len(base); cursor++ {
				if base[cursor].Buckets != nil {
					buckets = base[cursor].Buckets[:0]
					base[cursor].Buckets = nil
					cursor++
					break
				}
			}
			h := s.hist
			smp.Count = h.Count()
			smp.Sum = h.Sum()
			var cum int64
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				// The exemplar pointer is shared, not copied — immutable by
				// construction, so attaching it costs no allocation and the
				// recycled-slice scrape stays zero-alloc.
				buckets = append(buckets, Bucket{UpperBound: h.upper(i), Count: cum, Exemplar: h.BucketExemplar(i)})
			}
			smp.Buckets = buckets
			dst = append(dst, smp)
		}
	}
	for _, f := range r.families {
		if f.kind == KindHistogram {
			continue
		}
		for _, s := range f.series {
			smp := Sample{Name: f.name, Labels: s.labels, Kind: f.kind}
			if f.kind == KindCounter {
				smp.Value = float64(s.ctr.Value())
			} else {
				smp.Value = s.gauge.Value()
			}
			dst = append(dst, smp)
		}
	}
	return dst
}

// Snapshot returns a point-in-time copy of every metric, sorted by name
// then label set. Concurrent updates during the walk may be partially
// included (each individual metric is read atomically).
func (r *Registry) Snapshot() []Sample {
	out := r.SnapshotAppend(nil)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
