// Online anomaly surfacing over the finest-tier counter history.
//
// Every time tier 0 closes, the detector scores each counter bucket
// against its own trailing window with a robust z-score: the median
// and the MAD (median absolute deviation) are outlier-resistant where
// mean/stddev are not, so a traffic spike cannot mask itself by
// inflating its own baseline. The estimate σ̂ = 1.4826·MAD makes the
// score comparable to a Gaussian z; a minMAD floor keeps near-constant
// series (MAD ≈ 0) from flagging every tiny wobble as infinite z.
//
// Findings land in a fixed ring and on the history_anomalies_total
// counter, which the store records like any other series.

package history

import (
	"math"
	"slices"
	"sort"
	"sync"

	"kalmanstream/internal/telemetry"
)

// Finding is one flagged bucket.
type Finding struct {
	// Tick is the store tick at which the flagged bucket closed.
	Tick   int64  `json:"tick"`
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	// Value is the bucket's counter delta; Median and MAD describe the
	// trailing window it was scored against; Z is the robust z-score.
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	Z      float64 `json:"z"`
}

// DetectorConfig parameterizes a Detector. The zero value is usable.
type DetectorConfig struct {
	// Window is the trailing-bucket span scored against (default 60).
	Window int
	// MinHistory is the minimum trailing buckets required before a
	// series is judged at all (default 20) — a young series has no
	// baseline to deviate from.
	MinHistory int
	// Z is the robust z-score threshold (default 6).
	Z float64
	// Registry hosts history_anomalies_total (default telemetry.Default).
	Registry *telemetry.Registry
}

const (
	// minMAD floors the deviation estimate at one event per bucket, so
	// near-constant counters don't flag on noise.
	minMAD = 1.0
	// maxFindings bounds the in-memory finding ring (newest win).
	maxFindings = 64
)

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Window <= 0 {
		c.Window = 60
	}
	if c.MinHistory <= 0 {
		c.MinHistory = 20
	}
	if c.MinHistory > c.Window {
		c.MinHistory = c.Window
	}
	if c.Z <= 0 {
		c.Z = 6
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// Detector scores counter buckets as they close. It allocates all its
// working memory at construction, so running inside the store's tick
// keeps the record path allocation-free.
type Detector struct {
	cfg DetectorConfig
	tel *telemetry.Counter

	scratch []float64 // sorted trailing values, then absolute deviations

	// Finding ring; mu covers it so Findings (per HTTP request) can
	// read concurrently with the owning store's tick.
	mu       sync.Mutex
	findings []Finding
	count    int64
}

// consistency scales MAD to estimate σ under a Gaussian model.
const madToSigma = 1.4826

// NewDetector builds a detector; attach it via Config.Detector.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.withDefaults()
	d := &Detector{
		cfg:      cfg,
		tel:      cfg.Registry.Counter("history_anomalies_total"),
		scratch:  make([]float64, 0, cfg.Window),
		findings: make([]Finding, 0, maxFindings),
	}
	cfg.Registry.Help("history_anomalies_total", "counter buckets flagged by the robust z-score anomaly detector")
	return d
}

// observe scores the just-closed tier-0 bucket of one counter series.
// Called by the store with its lock held; the trailing window EXCLUDES
// the scored bucket, so a spike cannot shift its own baseline.
func (d *Detector) observe(tick int64, s *seriesState) {
	r := &s.rings[0]
	avail := r.avail()
	if avail < int64(d.cfg.MinHistory)+1 {
		return
	}
	w := int64(d.cfg.Window)
	if avail-1 < w {
		w = avail - 1
	}
	x := r.bucketAt(0)[0]
	d.scratch = d.scratch[:0]
	for j := int64(1); j <= w; j++ {
		d.scratch = append(d.scratch, r.bucketAt(j)[0])
	}
	slices.Sort(d.scratch)
	med := medianSorted(d.scratch)
	for i, v := range d.scratch {
		d.scratch[i] = math.Abs(v - med)
	}
	slices.Sort(d.scratch)
	mad := medianSorted(d.scratch)
	sigma := madToSigma * mad
	if sigma < minMAD {
		sigma = minMAD
	}
	z := math.Abs(x-med) / sigma
	if z < d.cfg.Z {
		return
	}
	f := Finding{Tick: tick, Name: s.name, Labels: s.labels, Value: x, Median: med, MAD: mad, Z: z}
	d.mu.Lock()
	if len(d.findings) < cap(d.findings) {
		d.findings = append(d.findings, f)
	} else {
		d.findings[d.count%int64(cap(d.findings))] = f
	}
	d.count++
	d.mu.Unlock()
	d.tel.Inc()
}

// medianSorted returns the median of an ascending slice.
func medianSorted(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Findings returns the retained findings, oldest first. Findings from
// the same tick are ordered by name then labels — series are scored in
// scrape order, which follows the registry's map iteration, and sorting
// here keeps the output deterministic across runs.
func (d *Detector) Findings() []Finding {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := int64(len(d.findings))
	if c == 0 {
		return nil
	}
	out := make([]Finding, 0, c)
	start := d.count - c
	for i := int64(0); i < c; i++ {
		out = append(out, d.findings[(start+i)%int64(cap(d.findings))])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tick != out[j].Tick {
			return out[i].Tick < out[j].Tick
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// Total is the lifetime finding count.
func (d *Detector) Total() int64 { return d.tel.Value() }
