// Package stream defines the data-stream abstraction and a family of
// deterministic synthetic generators modelled on the workload classes used
// to evaluate stream resource management: random walks, drifting ramps,
// periodic signals, mean-reverting processes, regime-switching mixtures,
// bursty network load, geometric-Brownian-motion quotes, and planar
// moving-object trajectories.
//
// Every generator is seeded and fully deterministic, so experiments are
// reproducible run-to-run; the same seed always yields the same stream.
package stream

import "math"

// Point is a single stream element: the measurement a source would report
// at a tick, plus (when the generator knows it) the noise-free ground
// truth behind the measurement. Truth is nil for replayed traces.
type Point struct {
	Tick  int64
	Value []float64
	Truth []float64
}

// Stream yields a finite sequence of points in tick order.
type Stream interface {
	// Name identifies the stream for reports.
	Name() string
	// Dim is the dimensionality of Value.
	Dim() int
	// Next returns the next point, or ok=false when the stream is
	// exhausted.
	Next() (p Point, ok bool)
}

// Record drains a stream into a slice.
func Record(s Stream) []Point {
	var out []Point
	for {
		p, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// Replay returns a Stream that re-yields recorded points.
func Replay(name string, dim int, points []Point) Stream {
	return &replay{name: name, dim: dim, points: points}
}

type replay struct {
	name   string
	dim    int
	points []Point
	i      int
}

func (r *replay) Name() string { return r.name }
func (r *replay) Dim() int     { return r.dim }

func (r *replay) Next() (Point, bool) {
	if r.i >= len(r.points) {
		return Point{}, false
	}
	p := r.points[r.i]
	r.i++
	return p, true
}

// Values extracts component k of every point's measurement.
func Values(points []Point, k int) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.Value[k]
	}
	return out
}

// Volatility estimates the per-tick movement scale of a recorded stream:
// the standard deviation of first differences of component k. The δ grids
// in the experiments are expressed in multiples of this quantity so that
// "tight" and "loose" mean the same thing across streams of very
// different scales.
func Volatility(points []Point, k int) float64 {
	if len(points) < 2 {
		return 0
	}
	n := len(points) - 1
	var mean float64
	for i := 1; i < len(points); i++ {
		mean += points[i].Value[k] - points[i-1].Value[k]
	}
	mean /= float64(n)
	var ss float64
	for i := 1; i < len(points); i++ {
		d := points[i].Value[k] - points[i-1].Value[k] - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}
