// Package history is the retrospective-observability layer: a
// stdlib-only, fixed-memory, multi-resolution time-series store over a
// telemetry.Registry. Where internal/health answers "is the budget
// burning *now*", history answers "what did this series do over the
// last two minutes / hour / six hours" — the signal an incident bundle
// needs to show the ramp before a cliff, and the signal autonomic
// rebalancing (ROADMAP item 1) will consume.
//
// Gray's self-managing-database thesis demands exactly this substrate:
// a system cannot heal itself from instantaneous state alone, it needs
// the trajectory. The store records it by diffing the registry once
// per tick (via Registry.SnapshotAppend, so the steady-state tick is
// allocation-free) and folding the per-tick deltas into a cascade of
// resolution tiers — by default 1-tick buckets ×120, 10-tick ×360,
// 60-tick ×360. Each coarser tier's bucket is exactly the aggregate of
// the finer tier's buckets spanning it (sums for counter deltas and
// histogram bucket deltas, last/min/max for gauges), so downsampling
// loses resolution but never events.
//
// Memory is bounded at construction: every series costs
// Σ stride×Len×8 bytes across tiers (stride 1 for counters, 3 for
// gauges, buckets+2 for histograms) and the store refuses to track more
// than MaxSeries distinct series — overflow is visible on the
// history_series_dropped gauge, never a growing map.
package history

import (
	"fmt"
	"strings"
	"sync"

	"kalmanstream/internal/telemetry"
)

// Tier is one resolution level: buckets of Every ticks, Len retained.
type Tier struct {
	// Every is the bucket width in ticks.
	Every int64 `json:"every"`
	// Len is how many closed buckets the ring retains.
	Len int `json:"len"`
}

// DefaultTiers is the default cascade: 1-tick buckets for the last 120
// ticks, 10-tick buckets for the last hour (at 1 tick/s), 60-tick
// buckets for the last six hours.
func DefaultTiers() []Tier {
	return []Tier{{Every: 1, Len: 120}, {Every: 10, Len: 360}, {Every: 60, Len: 360}}
}

// Config parameterizes a Store. The zero value is usable.
type Config struct {
	// Registry is the scrape source (default telemetry.Default).
	Registry *telemetry.Registry
	// Tiers is the resolution cascade, finest first. Every values must
	// be strictly increasing and each an integer multiple of the
	// previous (default DefaultTiers()).
	Tiers []Tier
	// MaxSeries bounds the number of distinct series tracked (default
	// 512). Series beyond the cap are dropped, counted on the
	// history_series_dropped gauge.
	MaxSeries int
	// Detector, when set, runs on every finest-tier counter close and
	// flags robust-z outliers (see anomaly.go).
	Detector *Detector
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	if len(c.Tiers) == 0 {
		c.Tiers = DefaultTiers()
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 512
	}
	return c
}

func validateTiers(tiers []Tier) error {
	for k, t := range tiers {
		if t.Every <= 0 || t.Len <= 0 {
			return fmt.Errorf("history: tier %d: Every and Len must be positive (got %d×%d)", k, t.Every, t.Len)
		}
		if k > 0 {
			prev := tiers[k-1].Every
			if t.Every <= prev || t.Every%prev != 0 {
				return fmt.Errorf("history: tier %d width %d is not an increasing integer multiple of tier %d width %d", k, t.Every, k-1, prev)
			}
		}
	}
	return nil
}

// seriesKey identifies one registry series without string concatenation
// (so steady-state map lookups allocate nothing).
type seriesKey struct{ name, labels string }

// tierRing is one series' ring at one tier: a flat float64 slice of
// Len buckets × stride values, allocated once at series creation.
type tierRing struct {
	stride int
	buf    []float64
	n      int64 // buckets closed into this ring since series creation
}

// bucketAt returns the j-th most recent closed bucket (j=0 newest).
func (r *tierRing) bucketAt(j int64) []float64 {
	ln := int64(len(r.buf) / r.stride)
	slot := int(((r.n-1-j)%ln + ln) % ln)
	return r.buf[slot*r.stride : (slot+1)*r.stride]
}

// avail is how many closed buckets the ring currently holds.
func (r *tierRing) avail() int64 {
	ln := int64(len(r.buf) / r.stride)
	if r.n < ln {
		return r.n
	}
	return ln
}

// accum is one series' open (not yet closed) bucket at one tier.
type accum struct {
	d              float64 // counter: delta accumulated this bucket
	last, min, max float64 // gauge
	seeded         bool    // gauge: min/max initialized
	dCount, dSum   float64 // histogram
	db             []float64
}

// Ring value layout per kind:
//
//	counter   stride 1         [delta]
//	gauge     stride 3         [last, min, max]
//	histogram stride buckets+2 [countΔ, sumΔ, cumulative bucketΔ…]
const (
	gaugeStride = 3
	histExtra   = 2
)

// seriesState is one tracked series: its diff baseline plus one
// accumulator and one ring per tier.
type seriesState struct {
	name, labels string
	kind         telemetry.Kind

	// Diff baseline: the cumulative values seen at the previous tick.
	lastValue   float64 // counter
	lastCount   int64   // histogram
	lastSum     float64
	lastBuckets []int64 // histogram: cumulative per-bound counts

	nb     int       // histogram bucket count (bounds + the +Inf bucket)
	bounds []float64 // histogram upper bounds, excluding +Inf

	acc   []accum
	rings []tierRing
}

// Store records multi-resolution history for every series in a
// registry. Tick drives it (once per core.System.Advance, or once per
// -history-interval in kfserver); Query/Dump/ExcerptFor read it, and so
// does the health monitor, whose burn-rate windows are one tier's
// buckets (Read). All methods are safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	cfg Config

	tick   int64
	closed []int64 // per-tier closed-bucket counts

	scratch []telemetry.Sample
	series  map[seriesKey]*seriesState
	order   []*seriesState // creation order, for deterministic closes

	telSeries  *telemetry.Gauge
	telDropped *telemetry.Gauge
}

// NewStore builds a Store over cfg.Registry. It returns an error only
// for an invalid tier cascade.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := validateTiers(cfg.Tiers); err != nil {
		return nil, err
	}
	st := &Store{
		cfg:        cfg,
		closed:     make([]int64, len(cfg.Tiers)),
		series:     make(map[seriesKey]*seriesState),
		telSeries:  cfg.Registry.Gauge("history_series"),
		telDropped: cfg.Registry.Gauge("history_series_dropped"),
	}
	cfg.Registry.Help("history_series", "distinct series tracked by the telemetry history store")
	cfg.Registry.Help("history_series_dropped", "registry series not tracked because the history store hit MaxSeries")
	return st, nil
}

// TierFor returns the index of the tier whose buckets are every ticks
// wide, which must retain at least n of them.
func (st *Store) TierFor(every int64, n int) (int, error) {
	for k, t := range st.cfg.Tiers {
		if t.Every != every {
			continue
		}
		if t.Len < n {
			return 0, fmt.Errorf("history: the %d-tick tier keeps %d buckets, fewer than %d", every, t.Len, n)
		}
		return k, nil
	}
	return 0, fmt.Errorf("history: no %d-tick tier in %v", every, st.cfg.Tiers)
}

// View is one tier as a windowed reader — the health monitor — sees it.
// It is valid only inside the Read call that hands it out, which holds
// the store lock, so every bucket read through it is of the same tick.
type View struct {
	st   *Store
	tier int
}

// Read calls fn with a View of tier k.
func (st *Store) Read(k int, fn func(View)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fn(View{st, k})
}

// Tick is the store tick; Closed counts the buckets the tier has closed.
func (v View) Tick() int64   { return v.st.tick }
func (v View) Closed() int64 { return v.st.closed[v.tier] }

// Bucket returns the j-th most recent closed bucket (j = 0 newest) of the
// series spec names — `name` or `name{labels}`, labels rendered as the
// registry renders them — in its kind's ring layout (see gaugeStride). It
// is nil when the series has no such bucket: it is not tracked (yet), or
// it was created after that bucket closed.
func (v View) Bucket(spec string, j int64) []float64 {
	s := v.st.series[keyOf(spec)]
	if s == nil || j >= s.rings[v.tier].avail() {
		return nil
	}
	return s.rings[v.tier].bucketAt(j)
}

// Bounds returns a histogram series' finite upper bounds (nil for any
// other or untracked series).
func (v View) Bounds(spec string) []float64 {
	if s := v.st.series[keyOf(spec)]; s != nil {
		return s.bounds
	}
	return nil
}

// keyOf parses a series spec, `name` or `name{labels}`.
func keyOf(spec string) seriesKey {
	if i := strings.IndexByte(spec, '{'); i >= 0 {
		return seriesKey{spec[:i], spec[i:]}
	}
	return seriesKey{spec, ""}
}

// Tick scrapes the registry, folds per-tick deltas into every tier's
// open bucket, and closes each tier whose boundary the tick lands on.
// The steady-state path — every series already known — performs no
// allocation (guarded by TestHistoryRecordZeroAlloc).
func (st *Store) Tick() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tick++
	st.scratch = st.cfg.Registry.SnapshotAppend(st.scratch[:0])
	dropped := 0
	for i := range st.scratch {
		smp := &st.scratch[i]
		s := st.series[seriesKey{smp.Name, smp.Labels}]
		if s == nil {
			if len(st.order) >= st.cfg.MaxSeries {
				dropped++
				continue
			}
			s = st.addSeries(smp)
		}
		s.fold(smp)
	}
	st.telDropped.Set(float64(dropped))
	st.telSeries.Set(float64(len(st.order)))
	for k := range st.cfg.Tiers {
		if st.tick%st.cfg.Tiers[k].Every != 0 {
			continue
		}
		for _, s := range st.order {
			s.closeTier(k)
		}
		st.closed[k]++
		if k == 0 && st.cfg.Detector != nil {
			for _, s := range st.order {
				if s.kind == telemetry.KindCounter {
					st.cfg.Detector.observe(st.tick, s)
				}
			}
		}
	}
}

// addSeries creates the state for a newly seen series. Caller holds mu.
// A series present at the store's FIRST scrape existed before recording
// began, so its cumulative value becomes the diff baseline (a counter
// at one million does not spike its first bucket). A series appearing
// at any later scrape was created since the previous tick — its whole
// cumulative value is genuinely in-window traffic and counts in full,
// so a per-stream counter born mid-run keeps its first burst.
func (st *Store) addSeries(smp *telemetry.Sample) *seriesState {
	s := &seriesState{name: smp.Name, labels: smp.Labels, kind: smp.Kind}
	preexisting := st.tick == 1
	stride := 1
	switch smp.Kind {
	case telemetry.KindCounter:
		if preexisting {
			s.lastValue = smp.Value
		}
	case telemetry.KindGauge:
		stride = gaugeStride
	case telemetry.KindHistogram:
		s.nb = len(smp.Buckets)
		s.bounds = make([]float64, 0, s.nb-1)
		s.lastBuckets = make([]int64, s.nb)
		for i, b := range smp.Buckets {
			if i < s.nb-1 {
				s.bounds = append(s.bounds, b.UpperBound)
			}
			if preexisting {
				s.lastBuckets[i] = b.Count
			}
		}
		if preexisting {
			s.lastCount = smp.Count
			s.lastSum = smp.Sum
		}
		stride = s.nb + histExtra
	}
	s.acc = make([]accum, len(st.cfg.Tiers))
	s.rings = make([]tierRing, len(st.cfg.Tiers))
	for k, t := range st.cfg.Tiers {
		s.rings[k] = tierRing{stride: stride, buf: make([]float64, stride*t.Len)}
		if smp.Kind == telemetry.KindHistogram {
			s.acc[k].db = make([]float64, s.nb)
		}
	}
	st.series[seriesKey{smp.Name, smp.Labels}] = s
	st.order = append(st.order, s)
	return s
}

// fold adds one tick's delta to every tier's open bucket. Folding the
// same per-tick delta into each tier directly is mathematically the
// downsampling cascade — a coarser bucket is the sum (or min/max/last)
// of the finer buckets spanning it — without inter-tier copying.
func (s *seriesState) fold(smp *telemetry.Sample) {
	switch s.kind {
	case telemetry.KindCounter:
		d := smp.Value - s.lastValue
		if d < 0 {
			d = smp.Value // counter reset: count the new epoch from zero
		}
		s.lastValue = smp.Value
		for k := range s.acc {
			s.acc[k].d += d
		}
	case telemetry.KindGauge:
		v := smp.Value
		for k := range s.acc {
			a := &s.acc[k]
			if !a.seeded {
				a.min, a.max = v, v
				a.seeded = true
			} else {
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
			a.last = v
		}
	case telemetry.KindHistogram:
		dCount := float64(smp.Count - s.lastCount)
		dSum := smp.Sum - s.lastSum
		s.lastCount, s.lastSum = smp.Count, smp.Sum
		for k := range s.acc {
			s.acc[k].dCount += dCount
			s.acc[k].dSum += dSum
		}
		n := len(smp.Buckets)
		if n > s.nb {
			n = s.nb // bucket layout changed mid-run: clip, never grow
		}
		for i := 0; i < n; i++ {
			d := float64(smp.Buckets[i].Count - s.lastBuckets[i])
			s.lastBuckets[i] = smp.Buckets[i].Count
			for k := range s.acc {
				s.acc[k].db[i] += d
			}
		}
	}
}

// closeTier pushes tier k's open bucket into its ring and resets the
// accumulator. Gauge min/max seeding resets too: the next bucket's
// envelope comes purely from its own ticks' samples (a quiet series
// still reads flat because every tick folds the current value).
func (s *seriesState) closeTier(k int) {
	r := &s.rings[k]
	a := &s.acc[k]
	ln := int64(len(r.buf) / r.stride)
	slot := int(r.n % ln)
	w := r.buf[slot*r.stride : (slot+1)*r.stride]
	switch s.kind {
	case telemetry.KindCounter:
		w[0] = a.d
		a.d = 0
	case telemetry.KindGauge:
		w[0], w[1], w[2] = a.last, a.min, a.max
		a.seeded = false
	case telemetry.KindHistogram:
		w[0], w[1] = a.dCount, a.dSum
		copy(w[histExtra:], a.db)
		a.dCount, a.dSum = 0, 0
		for i := range a.db {
			a.db[i] = 0
		}
	}
	r.n++
}
