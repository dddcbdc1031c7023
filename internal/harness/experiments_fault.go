package harness

import (
	"fmt"

	"kalmanstream/internal/core"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

func init() {
	register(Experiment{ID: "E13", Title: "Fault tolerance: bound degradation under message loss, and snapshot-resync healing (extension)", Run: runE13})
}

// runE13: the hard bound is proven for reliable links; this experiment
// quantifies what loss costs and what the resync mechanism buys back.
// For each loss rate, the same stream runs twice: plain corrections only,
// and with every correction upgraded to a full-state resync. Resyncs heal
// hidden-state divergence (a trend predictor's velocity) that plain
// corrections repair only partially, at a modest byte premium.
func runE13(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	delta := 1.0
	spec := predictor.Spec{Kind: predictor.KindKalman, Model: cvModel(0.05, 0.1)}
	mk := func() stream.Stream { return stream.NewSine(cfg.Seed, 0, 10, 200, 0, 0.2, cfg.Ticks) }

	tb := NewTable(
		fmt.Sprintf("E13: sine+noise through a lossy link, constant-velocity KF, δ=%g, T=%d", delta, cfg.Ticks),
		"loss", "mode", "violations", "msgs delivered", "bytes", "bytes/msg")
	for _, drop := range []float64{0, 0.1, 0.3, 0.5} {
		for _, mode := range []struct {
			label  string
			resync int64
		}{
			{"plain", 0},
			{"resync", 1},
		} {
			violRate, delivered, bytes, err := runLossy(spec, delta, drop, mode.resync, mk())
			if err != nil {
				return nil, err
			}
			perMsg := 0.0
			if delivered > 0 {
				perMsg = float64(bytes) / float64(delivered)
			}
			tb.AddRow(Pct(drop), mode.label, Pct(violRate),
				I(delivered), I(bytes), F(perMsg))
		}
	}
	tb.AddNote("at 0% loss both modes have 0 violations; under loss, resync trades ~4× message size")
	tb.AddNote("(state+covariance vs one value) for a lower violation rate on trend-tracking predictors.")
	return &Result{ID: "E13", Title: "Fault tolerance", Tables: []*Table{tb}}, nil
}

// runLossy runs the protocol over a lossy link and reports the violation
// rate on suppressed ticks plus delivered traffic.
func runLossy(spec predictor.Spec, delta, drop float64, resyncEvery int64, st stream.Stream) (violRate float64, delivered, bytes int64, err error) {
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return 0, 0, 0, err
	}
	id := st.Name()
	h, err := sys.Attach(core.StreamConfig{
		ID: id, Predictor: spec, Delta: delta,
		ResyncEvery: resyncEvery, LinkDropProb: drop, LinkSeed: 99,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var viol, supp int64
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		if err := sys.Advance(); err != nil {
			return 0, 0, 0, err
		}
		sent, err := h.Observe(p.Value)
		if err != nil {
			return 0, 0, 0, err
		}
		if sent {
			continue
		}
		supp++
		est, bound, err := sys.Vector(id)
		if err != nil {
			return 0, 0, 0, err
		}
		if core.NormInf.Deviation(p.Value, est) > bound+1e-9 {
			viol++
		}
	}
	ls := h.LinkStats()
	if supp == 0 {
		return 0, ls.Messages, ls.Bytes, nil
	}
	return float64(viol) / float64(supp), ls.Messages, ls.Bytes, nil
}
