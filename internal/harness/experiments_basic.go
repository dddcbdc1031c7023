package harness

import (
	"fmt"

	"kalmanstream/internal/core"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

func init() {
	register(Experiment{ID: "E1", Title: "Tracking quality per method at fixed δ (paper Fig: KF adapts to stream characteristics)", Run: runE1})
	register(Experiment{ID: "E2", Title: "Messages vs precision bound δ, synthetic streams (paper Fig: communication–precision tradeoff)", Run: runE2})
	register(Experiment{ID: "E3", Title: "Messages vs δ on real-world-like traces (paper Fig: synthetic and real streams)", Run: runE3})
	register(Experiment{ID: "E4", Title: "Robustness to sensor noise (paper Fig: noise adaptation)", Run: runE4})
	register(Experiment{ID: "E5", Title: "Method × stream-class communication matrix (paper Table: method comparison)", Run: runE5})
}

// runE1: one smooth time-varying stream, fixed δ; compare per-method
// message cost and tracking error side by side.
func runE1(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	mk := func() stream.Stream { return stream.NewSine(cfg.Seed, 100, 20, 400, 0, 0.5, cfg.Ticks) }
	vol := measureVolatility(mk)
	delta := 4 * vol

	tb := NewTable(
		fmt.Sprintf("E1: sine+noise, T=%d, δ=%.3g (4× volatility)", cfg.Ticks, delta),
		"method", "msgs", "suppression", "rmse", "max-err(suppr)", "violations")
	for _, m := range baselineMethods(cvModel(0.05, 0.25)) {
		rs, err := Run(m.spec, delta, core.NormInf, mk())
		if err != nil {
			return nil, err
		}
		tb.AddRow(m.name, I(rs.Messages), Pct(rs.SuppressionRatio()),
			F(rs.Err.RMSE()), F(rs.SuppressedErr.MaxAbs()), I(rs.Violations.Count))
	}
	tb.AddNote("max-err(suppr) must be ≤ δ: the hard bound. kalman should lead on msgs.")
	return &Result{ID: "E1", Title: "Tracking quality per method", Tables: []*Table{tb}}, nil
}

// runE2: the headline tradeoff curve — messages vs δ for each method, on
// (a) a pure random walk (no exploitable structure: KF ≈ cache is the
// honest result) and (b) a trending walk (structure: KF wins big).
func runE2(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{ID: "E2", Title: "Messages vs δ, synthetic streams"}

	cases := []struct {
		label string
		mk    func() stream.Stream
		model predictor.ModelSpec
	}{
		{
			"pure random walk (σ=1)",
			func() stream.Stream { return stream.NewRandomWalk(cfg.Seed, 0, 1, 0.05, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.0025},
		},
		{
			"trending walk (drift 0.5/tick + walk σ=0.3)",
			func() stream.Stream {
				return stream.NewComposite("trending-walk", cfg.Seed, 0,
					stream.NewLinearDrift(cfg.Seed+1, 0, 0.5, 0, cfg.Ticks),
					stream.NewRandomWalk(cfg.Seed+2, 0, 0.3, 0.05, cfg.Ticks),
				)
			},
			cvModel(0.02, 0.0025),
		},
	}
	for _, c := range cases {
		vol := measureVolatility(c.mk)
		deltas := deltaGrid(vol, 0.5, 1, 2, 4, 8, 16)
		tb := NewTable(
			fmt.Sprintf("E2 (%s): messages sent over T=%d ticks", c.label, cfg.Ticks),
			"δ/vol", "cache", "dead-reckon", "ewma", "holt", "kalman", "cache/kalman")
		for i, d := range deltas {
			row := []string{F(d / vol)}
			var cacheMsgs, kfMsgs int64
			for _, m := range baselineMethods(c.model) {
				rs, err := Run(m.spec, d, core.NormInf, c.mk())
				if err != nil {
					return nil, err
				}
				row = append(row, I(rs.Messages))
				switch m.name {
				case "cache":
					cacheMsgs = rs.Messages
				case "kalman":
					kfMsgs = rs.Messages
				}
			}
			row = append(row, Ratio(float64(cacheMsgs), float64(kfMsgs)))
			tb.AddRow(row...)
			_ = i
		}
		tb.AddNote("crossover: all methods → T as δ→0; savings grow with δ.")
		res.Tables = append(res.Tables, tb)
	}
	return res, nil
}

// runE3: realistic trace shapes — bursty network load and GBM quotes.
func runE3(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{ID: "E3", Title: "Messages vs δ, real-world-like traces"}

	cases := []struct {
		label string
		mk    func() stream.Stream
		model predictor.ModelSpec
	}{
		{"network load, raw samples (jitter-dominated)",
			func() stream.Stream { return stream.NewNetworkLoad(cfg.Seed, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 4, R: 1}},
		{"network load, window-averaged (trend-dominated)",
			func() stream.Stream {
				return stream.NewComposite("network-load-averaged", cfg.Seed, 0.3,
					stream.NewSine(cfg.Seed+1, 100, 40, 5000, 0, 0, cfg.Ticks),
					stream.NewSine(cfg.Seed+2, 0, 8, 600, 1, 0, cfg.Ticks),
					stream.NewOU(cfg.Seed+3, 0, 0.01, 0.15, 0, cfg.Ticks),
				)
			},
			cvModel(0.0001, 0.09)},
		{"stock quotes (GBM)",
			func() stream.Stream { return stream.NewGBM(cfg.Seed, 100, 0.00002, 0.003, 0.01, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 2.5, R: 0.01}},
	}
	for _, c := range cases {
		vol := measureVolatility(c.mk)
		deltas := deltaGrid(vol, 1, 2, 4, 8)
		tb := NewTable(
			fmt.Sprintf("E3 (%s): messages over T=%d ticks (volatility %.4g)", c.label, cfg.Ticks, vol),
			"δ/vol", "cache", "dead-reckon", "ewma", "holt", "kalman", "best")
		for _, d := range deltas {
			row := []string{F(d / vol)}
			best, bestMsgs := "", int64(-1)
			for _, m := range baselineMethods(c.model) {
				rs, err := Run(m.spec, d, core.NormInf, c.mk())
				if err != nil {
					return nil, err
				}
				row = append(row, I(rs.Messages))
				if bestMsgs < 0 || rs.Messages < bestMsgs {
					best, bestMsgs = m.name, rs.Messages
				}
			}
			row = append(row, best)
			tb.AddRow(row...)
		}
		res.Tables = append(res.Tables, tb)
	}
	if len(res.Tables) > 0 {
		res.Tables[len(res.Tables)-1].AddNote(
			"martingale-like traces (raw jitter, GBM) are the worst case: with the matching " +
				"random-walk model the KF ties caching instead of losing; trend-dominated traces are where it pulls ahead.")
	}
	return res, nil
}

// runE4: fixed underlying signal, increasing measurement noise. The gate
// fires on |z − pred|; a predictor that smooths noise (KF) suppresses far
// more than one that chases it (cache).
func runE4(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	delta := 2.0
	noises := []float64{0.05, 0.2, 0.5, 1, 2}

	tb := NewTable(
		fmt.Sprintf("E4: sine amplitude 10 period 500, δ=%g, varying measurement noise σ, T=%d", delta, cfg.Ticks),
		"noise σ", "cache msgs", "kalman msgs", "cache/kalman", "kalman rmse", "cache rmse")
	for _, noise := range noises {
		mk := func() stream.Stream { return stream.NewSine(cfg.Seed, 0, 10, 500, 0, noise, cfg.Ticks) }
		cacheSpec := predictor.Spec{Kind: predictor.KindStatic, Dim: 1}
		kfSpec := predictor.Spec{Kind: predictor.KindKalman, Model: cvModel(0.005, noise*noise+0.001)}
		crs, err := Run(cacheSpec, delta, core.NormInf, mk())
		if err != nil {
			return nil, err
		}
		krs, err := Run(kfSpec, delta, core.NormInf, mk())
		if err != nil {
			return nil, err
		}
		tb.AddRow(F(noise), I(crs.Messages), I(krs.Messages),
			Ratio(float64(crs.Messages), float64(krs.Messages)),
			F(krs.Err.RMSE()), F(crs.Err.RMSE()))
	}
	tb.AddNote("as σ grows toward δ, the cache must chase noise; the KF's advantage widens.")
	return &Result{ID: "E4", Title: "Robustness to sensor noise", Tables: []*Table{tb}}, nil
}

// runE5: the summary matrix — message counts for every method on every
// stream class at a medium bound (2× volatility).
func runE5(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	classes := []struct {
		label string
		mk    func() stream.Stream
		model predictor.ModelSpec
	}{
		{"random-walk", func() stream.Stream { return stream.NewRandomWalk(cfg.Seed, 0, 1, 0.05, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.0025}},
		{"linear-drift", func() stream.Stream { return stream.NewLinearDrift(cfg.Seed, 0, 0.5, 0.2, cfg.Ticks) },
			cvModel(1e-6, 0.04)},
		{"sine", func() stream.Stream { return stream.NewSine(cfg.Seed, 0, 10, 300, 0, 0.2, cfg.Ticks) },
			cvModel(0.01, 0.04)},
		{"ornstein-uhlenbeck", func() stream.Stream { return stream.NewOU(cfg.Seed, 50, 0.05, 1, 0.1, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}},
		{"network-load", func() stream.Stream { return stream.NewNetworkLoad(cfg.Seed, cfg.Ticks) },
			predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 4, R: 1}},
		{"regime-switching", func() stream.Stream { return stream.NewRegimeSwitching(cfg.Seed, 2000, 0.2, cfg.Ticks) },
			cvModel(0.05, 0.04)},
	}

	tb := NewTable(
		fmt.Sprintf("E5: messages per method per stream class, δ = 2× volatility, T=%d", cfg.Ticks),
		"stream", "cache", "dead-reckon", "ewma", "holt", "kalman", "winner")
	for _, c := range classes {
		vol := measureVolatility(c.mk)
		delta := 2 * vol
		row := []string{c.label}
		best, bestMsgs := "", int64(-1)
		for _, m := range baselineMethods(c.model) {
			rs, err := Run(m.spec, delta, core.NormInf, c.mk())
			if err != nil {
				return nil, err
			}
			if rs.Violations.Count > 0 {
				return nil, fmt.Errorf("E5: %s/%s violated the bound %d times", c.label, m.name, rs.Violations.Count)
			}
			row = append(row, I(rs.Messages))
			if bestMsgs < 0 || rs.Messages < bestMsgs {
				best, bestMsgs = m.name, rs.Messages
			}
		}
		row = append(row, best)
		tb.AddRow(row...)
	}
	tb.AddNote("kalman wins or ties wherever its model fits and never loses to cache; trend smoothers (holt, a")
	tb.AddNote("stiff CV filter) share the drift class, and clean piecewise-linear ramps are dead-reckoning's")
	tb.AddNote("home turf (see E6b and E11 for the bank that removes the per-class model choice).")
	return &Result{ID: "E5", Title: "Method × stream-class matrix", Tables: []*Table{tb}}, nil
}
