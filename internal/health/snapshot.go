// Point-in-time JSON views of the monitor: the /debug/health payload
// and the structures `streamkf top` decodes. Snapshots allocate freely
// — they run per HTTP request, not per tick.

package health

import (
	"math"

	"kalmanstream/internal/history"
)

// SLOSnapshot is one objective's current verdict.
type SLOSnapshot struct {
	Name string `json:"name"`
	// Kind is "ratio", "gauge", or "latency".
	Kind string `json:"kind"`
	// Severity is "ok", "warn", or "page".
	Severity string `json:"severity"`
	// Budget is the allowed bad/total ratio (0 for gauge objectives).
	Budget float64 `json:"budget"`
	// BurnFast and BurnSlow are the latest burn rates (+Inf is rendered
	// as a large sentinel so the payload stays valid JSON).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// SinceTick is the tick the current non-OK state began (0 when OK).
	SinceTick int64 `json:"since_tick,omitempty"`
	// Series names the registry series this objective evaluates (bad
	// then total for ratio SLOs), as `name` or `name{labels}` — the specs
	// the flight recorder pulls the matching history for.
	Series []string `json:"series,omitempty"`
	// Windows holds the per-window bad ratio oldest→newest — the
	// δ-violation sparkline `streamkf top` renders.
	Windows []float64 `json:"windows,omitempty"`
}

// Snapshot is the monitor's full JSON view. Tick and WindowsClosed are
// the store's tick and its window tier's bucket count; the series
// themselves are served by /debug/history.
type Snapshot struct {
	Tick          int64         `json:"tick"`
	WindowsClosed int64         `json:"windows_closed"`
	WindowTicks   int           `json:"window_ticks"`
	ActiveAlerts  int           `json:"active_alerts"`
	Severity      string        `json:"severity"`
	SLOs          []SLOSnapshot `json:"slos"`
	Transitions   []Transition  `json:"transitions,omitempty"`
}

// jsonBurn clamps +Inf burn rates to a large finite sentinel:
// encoding/json rejects infinities, and any consumer treats 1e9 and
// +Inf identically (far past every threshold).
func jsonBurn(v float64) float64 {
	if math.IsInf(v, 1) || v > 1e9 {
		return 1e9
	}
	return v
}

// Snapshot captures the monitor state: every SLO's burn rates, severity
// and last Windows windows, and the recent transition log (oldest
// first).
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()

	snap := Snapshot{WindowTicks: m.cfg.WindowTicks, SLOs: make([]SLOSnapshot, len(m.slos))}
	worst := SevOK
	for i, s := range m.slos {
		snap.SLOs[i] = SLOSnapshot{
			Name:      s.name,
			Kind:      s.kind.String(),
			Severity:  s.sev.String(),
			Budget:    s.budget,
			BurnFast:  jsonBurn(s.burnFast),
			BurnSlow:  jsonBurn(s.burnSlow),
			SinceTick: s.sinceTick,
			Series:    s.series,
		}
		if s.sev > SevOK {
			snap.ActiveAlerts++
		}
		worst = max(worst, s.sev)
	}
	snap.Severity = worst.String()
	if m.store != nil {
		m.store.Read(m.tier, func(v history.View) {
			snap.Tick, snap.WindowsClosed = v.Tick(), v.Closed()
			n := min(v.Closed(), int64(m.cfg.Windows))
			for i, s := range m.slos {
				w := make([]float64, n)
				for j := range w { // oldest first
					if bad, total := s.badTotal(v, n-1-int64(j)); total > 0 {
						w[j] = bad / total
					}
				}
				snap.SLOs[i].Windows = w
			}
		})
	}

	// Transition log, oldest first.
	if c := int64(len(m.transitions)); c > 0 {
		start := m.transCount - c
		snap.Transitions = make([]Transition, 0, c)
		for i := int64(0); i < c; i++ {
			tr := m.transitions[(start+i)%int64(cap(m.transitions))]
			tr.BurnFast = jsonBurn(tr.BurnFast)
			tr.BurnSlow = jsonBurn(tr.BurnSlow)
			snap.Transitions = append(snap.Transitions, tr)
		}
	}
	return snap
}
