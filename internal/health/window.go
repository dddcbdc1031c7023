// Rolling-window aggregation over telemetry handles. Each tracked
// metric keeps a fixed-size ring of per-window aggregates: counters
// store the window's delta (and an EWMA of the per-tick rate), gauges
// the maximum value sampled during the window, histograms the raw
// per-bucket count deltas — enough to compute windowed quantiles
// without ever touching the cumulative series. All rings are allocated
// at track time; closing a window is pure index arithmetic, which is
// what keeps Monitor.Tick allocation-free on the steady-state path.

package health

import "kalmanstream/internal/telemetry"

// counterTrack follows one monotonically increasing series, windowing
// it into deltas.
type counterTrack struct {
	name string
	src  *telemetry.Counter
	fn   func() int64 // alternative source; exactly one of src/fn is set

	last    int64     // cumulative value at the last window close
	ring    []float64 // per-window delta, indexed by window slot
	ewma    float64   // EWMA of the per-tick rate across windows
	ewmaSet bool
}

func (t *counterTrack) read() int64 {
	if t.fn != nil {
		return t.fn()
	}
	return t.src.Value()
}

// close finalizes the current window into slot.
func (t *counterTrack) close(slot int, windowTicks int) {
	v := t.read()
	d := float64(v - t.last)
	t.last = v
	t.ring[slot] = d
	rate := d / float64(windowTicks)
	if !t.ewmaSet {
		t.ewma = rate
		t.ewmaSet = true
	} else {
		t.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*t.ewma
	}
}

// gaugeTrack follows one instantaneous series, windowing it into
// per-window maxima: a gauge that spikes and recovers inside a single
// window still marks that window, which is what a staleness objective
// needs.
type gaugeTrack struct {
	name string
	src  *telemetry.Gauge
	fn   func() float64

	cur    float64 // running max within the open window
	curSet bool
	ring   []float64 // per-window max
}

func (t *gaugeTrack) read() float64 {
	if t.fn != nil {
		return t.fn()
	}
	return t.src.Value()
}

// sample folds one observation into the open window's running max.
func (t *gaugeTrack) sample() {
	v := t.read()
	if !t.curSet || v > t.cur {
		t.cur = v
		t.curSet = true
	}
}

func (t *gaugeTrack) close(slot int) {
	t.sample() // the close itself observes the gauge one last time
	t.ring[slot] = t.cur
	t.cur = 0
	t.curSet = false
}

// histTrack follows one histogram, windowing its raw bucket counts into
// per-window deltas. The ring is a single flat slice (windows × buckets)
// so tracking a histogram costs exactly two allocations, both at track
// time.
type histTrack struct {
	name   string
	src    *telemetry.Histogram
	bounds []float64 // copy of the sorted upper bounds (+Inf implicit)
	nb     int       // len(bounds) + 1

	last    []int64 // raw bucket counts at the last window close
	scratch []int64
	ring    []int64 // flattened per-window bucket deltas
}

func (t *histTrack) close(slot int) {
	t.src.ReadBuckets(t.scratch)
	w := t.ring[slot*t.nb : (slot+1)*t.nb]
	for i := 0; i < t.nb; i++ {
		w[i] = t.scratch[i] - t.last[i]
		t.last[i] = t.scratch[i]
	}
}

// window returns the bucket deltas for one closed window slot.
func (t *histTrack) window(slot int) []int64 {
	return t.ring[slot*t.nb : (slot+1)*t.nb]
}

// quantileOver computes the q-quantile of the observations recorded in
// the given window slots: their bucket deltas are summed cumulatively
// into dst (len nb, caller-provided to keep hot paths allocation-free)
// and handed to the shared estimator.
func (t *histTrack) quantileOver(slots []int, q float64, dst []int64) float64 {
	clear(dst)
	for _, s := range slots {
		for i, c := range t.window(s) {
			dst[i] += c
		}
	}
	for i := 1; i < len(dst); i++ {
		dst[i] += dst[i-1]
	}
	return telemetry.Quantile(t.bounds, dst, q)
}
