// The SLO evaluator: objectives over the store tier's windows,
// multi-window burn rates, and the alert state machine.
//
// Every objective reduces to an error budget: a ratio of bad events to
// total events the service is allowed to spend (Olston et al. frame
// precision the same way — δ is a budget the gate spends by staying
// silent). The burn rate is how fast the budget is being consumed:
// burn = (observed bad ratio) / (budgeted bad ratio), so burn 1 means
// "spending exactly the budget" and burn 10 means "ten times too fast".
//
// Alerting is Google-SRE multi-window: a severity trips only when BOTH
// a fast window (reacts in minutes/ticks) and a slow window (confirms
// it is not a blip) exceed the threshold; it resolves only after the
// fast burn has stayed below the threshold for ResolveAfter consecutive
// evaluations (hysteresis, so a flapping signal cannot page-storm).

package health

import (
	"math"
	"sort"

	"kalmanstream/internal/history"
)

// Severity is an alert level. Ordering is meaningful: higher is worse.
type Severity uint8

// Alert severities.
const (
	SevOK Severity = iota
	SevWarn
	SevPage
)

func (s Severity) String() string {
	switch s {
	case SevOK:
		return "ok"
	case SevWarn:
		return "warn"
	case SevPage:
		return "page"
	default:
		return "unknown"
	}
}

// Thresholds sets one objective's burn-rate trip points. Zero fields
// take the defaults (warn at 2× budget, page at 10×).
type Thresholds struct {
	// WarnBurn trips WARN when both window burn rates reach it.
	WarnBurn float64
	// PageBurn trips PAGE when both window burn rates reach it.
	PageBurn float64
}

// Default burn-rate trip points.
const (
	DefaultWarnBurn = 2.0
	DefaultPageBurn = 10.0
)

func (t Thresholds) withDefaults() Thresholds {
	if t.WarnBurn <= 0 {
		t.WarnBurn = DefaultWarnBurn
	}
	if t.PageBurn <= 0 {
		t.PageBurn = DefaultPageBurn
	}
	return t
}

// Transition is one alert state change, emitted through the monitor's
// logger, the health_alerts_active gauge, and the OnTransition hook.
type Transition struct {
	// SLO names the objective that changed state.
	SLO string `json:"slo"`
	// From and To are the severities before and after.
	From Severity `json:"-"`
	To   Severity `json:"-"`
	// FromName and ToName render the severities for JSON consumers.
	FromName string `json:"from"`
	ToName   string `json:"to"`
	// Tick is the monitor tick at which the transition fired.
	Tick int64 `json:"tick"`
	// Window is the closed-window sequence number.
	Window int64 `json:"window"`
	// BurnFast and BurnSlow are the burn rates that drove the decision.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// sloKind discriminates objective flavors.
type sloKind uint8

const (
	sloRatio sloKind = iota + 1
	sloGauge
	sloLatency
)

func (k sloKind) String() string {
	switch k {
	case sloRatio:
		return "ratio"
	case sloGauge:
		return "gauge"
	case sloLatency:
		return "latency"
	default:
		return "unknown"
	}
}

// sloState is one declared objective plus its alert state.
type sloState struct {
	name   string
	kind   sloKind
	budget float64 // allowed bad/total ratio; 0 means "any bad event trips"
	th     Thresholds

	// series names the registry series evaluated, as `name` or
	// `name{labels}`: bad then total for sloRatio, one otherwise. The
	// flight recorder pulls the same names' history into a bundle.
	series     []string
	gaugeMax   float64 // sloGauge: window max above this is a bad window
	bound      float64 // sloLatency: the promised latency at the quantile
	goodBucket int     // sloLatency: last bucket within bound (-1 until the series is seen)

	// Alert state.
	sev        Severity
	cleanEvals int
	sinceTick  int64 // tick the current non-OK state began (0 when OK)
	burnFast   float64
	burnSlow   float64
}

// badTotal reads the objective's bad and total event counts in the j-th
// newest window. A series with no bucket there (not yet created) had no
// events; a gauge window with none counts as a good window.
func (s *sloState) badTotal(v history.View, j int64) (bad, total float64) {
	w := v.Bucket(s.series[0], j)
	switch s.kind {
	case sloRatio:
		t := v.Bucket(s.series[1], j)
		if w != nil {
			bad = w[0] // counter bucket: [delta]
		}
		if t != nil {
			total = t[0]
		}
		return bad, total
	case sloGauge:
		if len(w) > 2 && w[2] > s.gaugeMax { // gauge bucket: [last, min, max]
			return 1, 1
		}
		return 0, 1
	case sloLatency:
		if len(w) < 3 {
			return 0, 0
		}
		if s.goodBucket < 0 {
			s.goodBucket = sort.SearchFloat64s(v.Bounds(s.series[0]), s.bound)
		}
		// Histogram bucket: [countΔ, sumΔ, cumulative bucketΔ…, +Inf].
		cum := w[2:]
		total = cum[len(cum)-1]
		return total - cum[s.goodBucket], total
	}
	return 0, 0
}

// burnRate turns a bad/total observation into budget-relative burn.
// No events means no spend; a zero budget means any bad event is an
// infinite burn (the streams_stale == 0 style of objective).
func burnRate(bad, total, budget float64) float64 {
	if total == 0 || bad == 0 {
		return 0
	}
	ratio := bad / total
	if budget <= 0 {
		return math.Inf(1)
	}
	return ratio / budget
}

// wanted maps the two burn rates to the severity they call for.
func (s *sloState) wanted(burnFast, burnSlow float64) Severity {
	want := SevOK
	if burnFast >= s.th.WarnBurn && burnSlow >= s.th.WarnBurn {
		want = SevWarn
	}
	if burnFast >= s.th.PageBurn && burnSlow >= s.th.PageBurn {
		want = SevPage
	}
	return want
}
