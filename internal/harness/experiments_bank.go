package harness

import (
	"fmt"

	"kalmanstream/internal/core"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

func init() {
	register(Experiment{ID: "E11", Title: "Multi-model bank ablation: one predictor for unknown/changing regimes (extension)", Run: runE11})
}

// defaultBank is the three-hypothesis bank used as the "don't know the
// regime" default: a level-tracker, a stiff trend-tracker, and a loose
// trend-tracker.
func defaultBank(r float64) predictor.Spec {
	return predictor.Spec{Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
		{Kind: predictor.ModelRandomWalk, Q: 0.05, R: r},
		{Kind: predictor.ModelConstantVelocity, Q: 0.0005, R: r},
		{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: r},
	}}
}

// runE11: (a) on the regime-switching stream, the bank must beat every
// fixed Kalman model and approach the per-regime specialist
// (dead-reckoning on clean ramps); (b) across the E5 stream classes, the
// *same* bank — untouched — must be within a modest factor of the best
// per-class fixed choice, which is the operational payoff: one default
// predictor instead of per-stream tuning.
func runE11(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{ID: "E11", Title: "Multi-model bank ablation"}

	// (a) regime-switching head-to-head.
	segLen := cfg.Ticks / 10
	if segLen == 0 {
		segLen = 1
	}
	mk := func() stream.Stream { return stream.NewRegimeSwitching(cfg.Seed, segLen, 0.2, cfg.Ticks) }
	vol := measureVolatility(mk)
	delta := 2 * vol

	cases := []struct {
		label string
		spec  predictor.Spec
	}{
		{"cache", predictor.Spec{Kind: predictor.KindStatic, Dim: 1}},
		{"dead-reckon (regime specialist)", predictor.Spec{Kind: predictor.KindDeadReckoning, Dim: 1}},
		{"kalman fixed random-walk", predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.05, R: 0.04}}},
		{"kalman fixed constant-velocity", predictor.Spec{Kind: predictor.KindKalman,
			Model: cvModel(0.05, 0.04)}},
		{"kalman bank (3 hypotheses)", defaultBank(0.04)},
	}
	tb := NewTable(
		fmt.Sprintf("E11a: regime-switching stream (segment=%d), δ=%.3g, T=%d", segLen, delta, cfg.Ticks),
		"predictor", "msgs", "rmse", "suppression")
	for _, c := range cases {
		rs, err := Run(c.spec, delta, core.NormInf, mk())
		if err != nil {
			return nil, err
		}
		tb.AddRow(c.label, I(rs.Messages), F(rs.Err.RMSE()), Pct(rs.SuppressionRatio()))
	}
	tb.AddNote("the bank must beat every fixed Kalman model; the specialist bound is dead-reckoning here.")
	res.Tables = append(res.Tables, tb)

	// (b) the same bank across heterogeneous stream classes.
	classes := []struct {
		label string
		mk    func() stream.Stream
		fixed predictor.ModelSpec
	}{
		{"random-walk", func() stream.Stream { return stream.NewRandomWalk(cfg.Seed, 0, 1, 0.05, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.0025}},
		{"linear-drift", func() stream.Stream { return stream.NewLinearDrift(cfg.Seed, 0, 0.5, 0.2, cfg.Ticks) },
			cvModel(0.001, 0.04)},
		{"sine", func() stream.Stream { return stream.NewSine(cfg.Seed, 0, 10, 300, 0, 0.2, cfg.Ticks) },
			cvModel(0.01, 0.04)},
		{"ornstein-uhlenbeck", func() stream.Stream { return stream.NewOU(cfg.Seed, 50, 0.05, 1, 0.1, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}},
	}
	tb2 := NewTable(
		fmt.Sprintf("E11b: one untuned bank vs the hand-picked fixed model per class, δ = 2× volatility, T=%d", cfg.Ticks),
		"stream", "fixed (tuned)", "bank (untuned)", "bank/fixed")
	for _, c := range classes {
		v := measureVolatility(c.mk)
		d := 2 * v
		fixedRS, err := Run(predictor.Spec{Kind: predictor.KindKalman, Model: c.fixed}, d, core.NormInf, c.mk())
		if err != nil {
			return nil, err
		}
		bankRS, err := Run(defaultBank(0.04), d, core.NormInf, c.mk())
		if err != nil {
			return nil, err
		}
		tb2.AddRow(c.label, I(fixedRS.Messages), I(bankRS.Messages),
			Ratio(float64(bankRS.Messages), float64(fixedRS.Messages)))
	}
	tb2.AddNote("the price of not tuning: bank/fixed close to 1x means the bank is a safe default.")
	res.Tables = append(res.Tables, tb2)
	return res, nil
}
