package harness

import (
	"fmt"
	"math"

	"kalmanstream/internal/core"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

func init() {
	register(Experiment{ID: "E12", Title: "Probabilistic answers: interval coverage, and when model intervals beat the hard δ bound (extension)", Run: runE12})
}

// runE12: alongside the hard worst-case bound δ, a Kalman replica can
// answer from its own predictive distribution. The final interval is the
// intersection of the model's Gaussian interval with the hard ±δ bound
// (coverage-preserving). This experiment measures, per δ regime:
//
//   - empirical coverage of nominal 90/99% intervals on suppressed ticks;
//   - the mean interval width relative to δ;
//   - how often the model interval was the binding (narrower) constraint.
//
// The headline finding: the suppression protocol's hard bound is
// remarkably strong competition. A δ tighter than the filter's one-step
// predictive noise is *never* beaten by the model interval, because
// "silence" certifies the measurement to within δ — information the
// marginal distribution cannot use. Only as δ loosens does the model
// interval win, and then only on the ticks shortly after a correction,
// before coasting inflates σ past δ.
func runE12(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	trueQ, trueR := 0.25, 0.04
	mk := func() stream.Stream {
		return stream.NewRandomWalk(cfg.Seed, 0, math.Sqrt(trueQ), math.Sqrt(trueR), cfg.Ticks)
	}
	vol := measureVolatility(mk)
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: trueQ, R: trueR}}

	tb := NewTable(
		fmt.Sprintf("E12: 1-D random walk (q=%.3g r=%.3g), intervals on suppressed ticks, T=%d", trueQ, trueR, cfg.Ticks),
		"δ/vol", "conf", "coverage", "mean width", "width/δ", "model-tighter")
	for _, mult := range []float64{1, 3, 8} {
		delta := mult * vol
		for _, conf := range []float64{0.90, 0.99} {
			cov, meanW, modelBinding, n, err := measureCoverage(spec, delta, conf, mk())
			if err != nil {
				return nil, err
			}
			if n == 0 {
				return nil, fmt.Errorf("E12: no suppressed ticks at δ=%g", delta)
			}
			tb.AddRow(F(mult), Pct(conf), Pct(cov),
				F(meanW), Ratio(meanW, delta), Pct(modelBinding))
		}
	}
	tb.AddNote("coverage must be ≥ nominal (intersection preserves it); 'model-tighter' is the fraction of")
	tb.AddNote("suppressed ticks where the Gaussian interval beat the hard bound. A δ tighter than the one-step")
	tb.AddNote("predictive noise z·σ₁ can never be beaten (0% row); as δ loosens, the model wins on the ticks")
	tb.AddNote("shortly after a correction, before coasting inflates σ past δ.")
	return &Result{ID: "E12", Title: "Probabilistic answers", Tables: []*Table{tb}}, nil
}

// measureCoverage runs the protocol and measures, over suppressed ticks,
// the empirical coverage of the confidence interval, its mean half-width,
// and the fraction of ticks where the model interval was narrower than
// the hard bound.
func measureCoverage(spec predictor.Spec, delta, conf float64, st stream.Stream) (coverage, meanWidth, modelBinding float64, n int64, err error) {
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	h, err := sys.Attach(core.StreamConfig{ID: "prob", Predictor: spec, Delta: delta})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var hits, binding int64
	var widthSum float64
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		if err := sys.Advance(); err != nil {
			return 0, 0, 0, 0, err
		}
		sent, err := h.Observe(p.Value)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if sent {
			continue
		}
		pa, err := sys.ProbValue("prob", conf)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		n++
		if pa.Interval().Contains(p.Value[0]) {
			hits++
		}
		widthSum += pa.HalfWidth
		if pa.ModelHalfWidth < delta {
			binding++
		}
	}
	if n == 0 {
		return 0, 0, 0, 0, nil
	}
	return float64(hits) / float64(n), widthSum / float64(n), float64(binding) / float64(n), n, nil
}
