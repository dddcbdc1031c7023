// Package query evaluates continuous queries over the server's predictor
// replicas, composing per-stream precision bounds into guaranteed bounds
// on query answers. This is the "answering queries from cached procedures"
// layer: every answer is approximate, but the error is bounded and the
// bound is part of the answer.
//
// Bound composition rules (per-stream bound δᵢ on the queried component,
// L∞ gate):
//
//	SUM  : |Σ estᵢ − Σ trueᵢ| ≤ Σ δᵢ
//	AVG  : ≤ (Σ δᵢ)/k
//	MIN  : true min ∈ [minᵢ(estᵢ−δᵢ), minᵢ(estᵢ+δᵢ)]
//	MAX  : symmetric
//	range predicate: certain when the ±δ interval is entirely inside or
//	outside the range, otherwise Unknown.
package query

import (
	"fmt"
	"math"

	"kalmanstream/internal/server"
)

// Answer is a point estimate with a guaranteed absolute error bound.
type Answer struct {
	Estimate float64
	Bound    float64
}

// Interval is a guaranteed enclosure of a true value.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Tristate is the answer to a predicate over approximate values.
type Tristate int8

// Tristate values.
const (
	False   Tristate = -1
	Unknown Tristate = 0
	True    Tristate = 1
)

func (t Tristate) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	default:
		return "unknown"
	}
}

// Engine answers queries against a server.
type Engine struct {
	srv *server.Server
	at  func() int64
}

// New returns an engine over srv that answers at the tick at returns, as
// server.QueryAt does: an answer is the one a query at that tick gets, and
// reading moves no record.
func New(srv *server.Server, at func() int64) *Engine { return &Engine{srv: srv, at: at} }

// answer is a stream's point answer at the engine's tick.
func (e *Engine) answer(id string) ([]float64, float64, error) { return e.srv.QueryAt(id, e.at()) }

// value fetches the estimate and bound for one component of one stream.
func (e *Engine) value(id string, component int) (float64, float64, error) {
	est, bound, err := e.answer(id)
	if err != nil {
		return 0, 0, err
	}
	if component < 0 || component >= len(est) {
		return 0, 0, fmt.Errorf("query: component %d out of range for stream %q (dim %d)", component, id, len(est))
	}
	return est[component], bound, nil
}

// Value answers a point query for one component of one stream.
func (e *Engine) Value(id string, component int) (Answer, error) {
	v, b, err := e.value(id, component)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Estimate: v, Bound: b}, nil
}

// Sum answers Σ over the given streams' component with the composed bound.
func (e *Engine) Sum(ids []string, component int) (Answer, error) {
	if len(ids) == 0 {
		return Answer{}, fmt.Errorf("query: Sum over no streams")
	}
	var sum, bound float64
	for _, id := range ids {
		v, b, err := e.value(id, component)
		if err != nil {
			return Answer{}, err
		}
		sum += v
		bound += b
	}
	return Answer{Estimate: sum, Bound: bound}, nil
}

// Average answers the mean over the given streams' component.
func (e *Engine) Average(ids []string, component int) (Answer, error) {
	s, err := e.Sum(ids, component)
	if err != nil {
		return Answer{}, err
	}
	k := float64(len(ids))
	return Answer{Estimate: s.Estimate / k, Bound: s.Bound / k}, nil
}

// Min returns a guaranteed enclosure of the true minimum over the streams'
// component, plus the point estimate (the minimum of the estimates).
func (e *Engine) Min(ids []string, component int) (Answer, Interval, error) {
	if len(ids) == 0 {
		return Answer{}, Interval{}, fmt.Errorf("query: Min over no streams")
	}
	lo, hi, est := math.Inf(1), math.Inf(1), math.Inf(1)
	var estBound float64
	for _, id := range ids {
		v, b, err := e.value(id, component)
		if err != nil {
			return Answer{}, Interval{}, err
		}
		lo = math.Min(lo, v-b)
		hi = math.Min(hi, v+b)
		if v < est {
			est, estBound = v, b
		}
	}
	return Answer{Estimate: est, Bound: estBound}, Interval{Lo: lo, Hi: hi}, nil
}

// Max is the mirror of Min.
func (e *Engine) Max(ids []string, component int) (Answer, Interval, error) {
	if len(ids) == 0 {
		return Answer{}, Interval{}, fmt.Errorf("query: Max over no streams")
	}
	lo, hi, est := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	var estBound float64
	for _, id := range ids {
		v, b, err := e.value(id, component)
		if err != nil {
			return Answer{}, Interval{}, err
		}
		lo = math.Max(lo, v-b)
		hi = math.Max(hi, v+b)
		if v > est {
			est, estBound = v, b
		}
	}
	return Answer{Estimate: est, Bound: estBound}, Interval{Lo: lo, Hi: hi}, nil
}

// Within answers whether the stream's component lies in [lo, hi],
// returning True/False only when the ±δ interval makes it certain.
func (e *Engine) Within(id string, component int, lo, hi float64) (Tristate, error) {
	v, b, err := e.value(id, component)
	if err != nil {
		return Unknown, err
	}
	switch {
	case v-b >= lo && v+b <= hi:
		return True, nil
	case v+b < lo || v-b > hi:
		return False, nil
	default:
		return Unknown, nil
	}
}

// ProbAnswer is a probabilistic point answer: a central estimate with a
// symmetric confidence interval. The interval is the intersection of the
// replica's model-based Gaussian interval with the protocol's hard ±δ
// bound — intersecting with a sure event preserves coverage, so the
// answer is never wider than the hard bound and is narrower whenever the
// model is confident.
type ProbAnswer struct {
	Estimate   float64
	HalfWidth  float64
	Confidence float64
	// ModelHalfWidth is the unclamped Gaussian half-width z·σ; when it
	// exceeds HalfWidth, the hard bound was the binding constraint
	// (suppression silence carried more information than the model).
	ModelHalfWidth float64
}

// Interval returns the confidence interval as an enclosure.
func (p ProbAnswer) Interval() Interval {
	return Interval{Lo: p.Estimate - p.HalfWidth, Hi: p.Estimate + p.HalfWidth}
}

// ProbValue answers a probabilistic point query at the given confidence
// level in (0, 1), e.g. 0.95 for a 95% interval. The stream's predictor
// must expose a predictive distribution (the Kalman family does).
func (e *Engine) ProbValue(id string, component int, confidence float64) (ProbAnswer, error) {
	if confidence <= 0 || confidence >= 1 {
		return ProbAnswer{}, fmt.Errorf("query: confidence %g outside (0, 1)", confidence)
	}
	est, std, err := e.srv.ValueDistribution(id, e.at())
	if err != nil {
		return ProbAnswer{}, err
	}
	if component < 0 || component >= len(est) {
		return ProbAnswer{}, fmt.Errorf("query: component %d out of range for stream %q (dim %d)", component, id, len(est))
	}
	// Gaussian quantile: half-width = z·σ with z = √2·erf⁻¹(confidence).
	z := math.Sqrt2 * math.Erfinv(confidence)
	modelHW := z * std[component]
	hw := modelHW

	// Intersect with the hard bound currently in force: on a suppressed
	// tick the measurement is certainly within ±δ of the prediction, and
	// on a correction tick the server knows the value exactly (bound 0).
	hardEst, hardBound, err := e.answer(id)
	if err != nil {
		return ProbAnswer{}, err
	}
	estimate := est[component]
	if hardBound < hw {
		hw = hardBound
		// The hard bound is anchored at the hard answer (which is the
		// exact measurement on correction ticks).
		estimate = hardEst[component]
	}
	return ProbAnswer{
		Estimate:       estimate,
		HalfWidth:      hw,
		Confidence:     confidence,
		ModelHalfWidth: modelHW,
	}, nil
}

// history reads the archived answers for ticks [from, to] as of the
// engine's tick, which settles every tick before it.
func (e *Engine) history(id string, from, to int64) ([]server.HistoryEntry, error) {
	return e.srv.HistoryRange(id, from, to, e.at())
}

// HistoryAverage answers the mean of a stream component over past ticks
// [from, to] from the server's archived answers, with the composed bound.
// Requires history to be enabled on the stream and the range retained.
func (e *Engine) HistoryAverage(id string, component int, from, to int64) (Answer, error) {
	entries, err := e.history(id, from, to)
	if err != nil {
		return Answer{}, err
	}
	var sum, bound float64
	for _, entry := range entries {
		if component < 0 || component >= len(entry.Estimate) {
			return Answer{}, fmt.Errorf("query: component %d out of range for stream %q history", component, id)
		}
		sum += entry.Estimate[component]
		bound += entry.Bound
	}
	n := float64(len(entries))
	return Answer{Estimate: sum / n, Bound: bound / n}, nil
}

// HistoryExtremes returns guaranteed enclosures of the true minimum and
// maximum of a stream component over past ticks [from, to].
func (e *Engine) HistoryExtremes(id string, component int, from, to int64) (minIv, maxIv Interval, err error) {
	entries, err := e.history(id, from, to)
	if err != nil {
		return Interval{}, Interval{}, err
	}
	minIv = Interval{Lo: math.Inf(1), Hi: math.Inf(1)}
	maxIv = Interval{Lo: math.Inf(-1), Hi: math.Inf(-1)}
	for _, entry := range entries {
		if component < 0 || component >= len(entry.Estimate) {
			return Interval{}, Interval{}, fmt.Errorf("query: component %d out of range for stream %q history", component, id)
		}
		v, b := entry.Estimate[component], entry.Bound
		minIv.Lo = math.Min(minIv.Lo, v-b)
		minIv.Hi = math.Min(minIv.Hi, v+b)
		maxIv.Lo = math.Max(maxIv.Lo, v-b)
		maxIv.Hi = math.Max(maxIv.Hi, v+b)
	}
	return minIv, maxIv, nil
}

// Window maintains a sliding window of sampled answers for one stream
// component, supporting windowed aggregates with per-sample bounds. The
// caller samples once per tick (after delivering that tick's messages).
type Window struct {
	engine    *Engine
	id        string
	component int
	size      int
	values    []float64
	bounds    []float64
	next      int
	filled    bool
}

// NewWindow returns a sliding window of the given size over one stream
// component.
func (e *Engine) NewWindow(id string, component, size int) (*Window, error) {
	if size <= 0 {
		return nil, fmt.Errorf("query: window size %d", size)
	}
	if _, _, err := e.value(id, component); err != nil {
		return nil, err
	}
	return &Window{
		engine:    e,
		id:        id,
		component: component,
		size:      size,
		values:    make([]float64, size),
		bounds:    make([]float64, size),
	}, nil
}

// Sample records the server's current answer into the window.
func (w *Window) Sample() error {
	v, b, err := w.engine.value(w.id, w.component)
	if err != nil {
		return err
	}
	w.values[w.next] = v
	w.bounds[w.next] = b
	w.next = (w.next + 1) % w.size
	if w.next == 0 {
		w.filled = true
	}
	return nil
}

// Len returns the number of samples currently in the window.
func (w *Window) Len() int {
	if w.filled {
		return w.size
	}
	return w.next
}

// Average returns the windowed mean with its composed bound.
func (w *Window) Average() (Answer, error) {
	n := w.Len()
	if n == 0 {
		return Answer{}, fmt.Errorf("query: window for %q is empty", w.id)
	}
	var sum, bound float64
	for i := 0; i < n; i++ {
		sum += w.values[i]
		bound += w.bounds[i]
	}
	return Answer{Estimate: sum / float64(n), Bound: bound / float64(n)}, nil
}

// Max returns the windowed maximum enclosure.
func (w *Window) Max() (Answer, Interval, error) {
	n := w.Len()
	if n == 0 {
		return Answer{}, Interval{}, fmt.Errorf("query: window for %q is empty", w.id)
	}
	lo, hi, est := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	var estBound float64
	for i := 0; i < n; i++ {
		lo = math.Max(lo, w.values[i]-w.bounds[i])
		hi = math.Max(hi, w.values[i]+w.bounds[i])
		if w.values[i] > est {
			est, estBound = w.values[i], w.bounds[i]
		}
	}
	return Answer{Estimate: est, Bound: estBound}, Interval{Lo: lo, Hi: hi}, nil
}
