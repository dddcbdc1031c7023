package harness

import (
	"fmt"
	"math"

	"kalmanstream/internal/core"
	"kalmanstream/internal/metrics"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

func init() {
	register(Experiment{ID: "E6", Title: "Moving objects: 2-D trajectories under the L2 gate (paper Fig: multi-dimensional streams)", Run: runE6})
	register(Experiment{ID: "E7", Title: "Adaptive noise estimation vs mis-specified filters (paper Fig: self-tuning)", Run: runE7})
	register(Experiment{ID: "E8", Title: "Precision under a message budget: allocator comparison (paper Fig: resource-constrained direction)", Run: runE8})
	register(Experiment{ID: "E9", Title: "Aggregate query answers and composed bounds (paper Table: query precision)", Run: runE9})
	register(Experiment{ID: "E10", Title: "Adaptation to regime changes over time (paper Fig: time-varying streams)", Run: runE10})
}

// runE6: random-waypoint mobility; methods gate on L2 position deviation.
// Two views: the δ sweep at a fixed GPS noise, and the noise sweep at a
// fixed δ that exposes the dead-reckoning/Kalman crossover — linear
// extrapolation through raw fixes is unbeatable on clean piecewise-linear
// motion, but its slope estimates collapse as fix noise approaches δ,
// exactly the regime the filtering view of resource management targets.
func runE6(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	methods2D := func(noise float64) []method {
		return []method{
			{"cache", predictor.Spec{Kind: predictor.KindStatic, Dim: 2}},
			{"dead-reckon", predictor.Spec{Kind: predictor.KindDeadReckoning, Dim: 2}},
			{"kalman-cv2d", predictor.Spec{Kind: predictor.KindKalman,
				Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity2D, Q: 0.5, R: noise*noise + 0.01}}},
		}
	}
	res := &Result{ID: "E6", Title: "Moving objects"}

	// (a) δ sweep at moderate noise.
	const fixNoise = 2.5
	tb := metrics.NewTable(
		fmt.Sprintf("E6a: moving objects (speeds 5–15/tick, GPS noise %.1f), T=%d, L2 gate, δ sweep", fixNoise, cfg.Ticks),
		"δ (distance)", "cache", "dead-reckon", "kalman-cv2d", "cache/kalman")
	for _, d := range []float64{5, 10, 25, 50} {
		row := []string{metrics.F(d)}
		var cacheMsgs, kfMsgs int64
		for _, m := range methods2D(fixNoise) {
			st := stream.NewWaypoint2D(cfg.Seed, 1000, 5, 15, fixNoise, 20, cfg.Ticks)
			rs, err := Run(m.spec, d, core.NormL2, st)
			if err != nil {
				return nil, err
			}
			if rs.Violations.Count > 0 {
				return nil, fmt.Errorf("E6: %s violated the L2 bound %d times", m.name, rs.Violations.Count)
			}
			row = append(row, metrics.I(rs.Messages))
			switch m.name {
			case "cache":
				cacheMsgs = rs.Messages
			case "kalman-cv2d":
				kfMsgs = rs.Messages
			}
		}
		row = append(row, metrics.Ratio(float64(cacheMsgs), float64(kfMsgs)))
		tb.AddRow(row...)
	}
	tb.AddNote("straight legs between waypoints are predictable: messages cluster at turns.")
	res.Tables = append(res.Tables, tb)

	// (b) noise sweep at fixed δ: the crossover.
	tb2 := metrics.NewTable(
		fmt.Sprintf("E6b: same fleet at δ=10, sweeping GPS fix noise, T=%d", cfg.Ticks),
		"fix noise σ", "cache", "dead-reckon", "kalman-cv2d", "winner")
	for _, noise := range []float64{0.5, 2, 4, 8} {
		row := []string{metrics.F(noise)}
		best, bestMsgs := "", int64(-1)
		for _, m := range methods2D(noise) {
			st := stream.NewWaypoint2D(cfg.Seed, 1000, 5, 15, noise, 20, cfg.Ticks)
			rs, err := Run(m.spec, 10, core.NormL2, st)
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.I(rs.Messages))
			if bestMsgs < 0 || rs.Messages < bestMsgs {
				best, bestMsgs = m.name, rs.Messages
			}
		}
		row = append(row, best)
		tb2.AddRow(row...)
	}
	tb2.AddNote("dead reckoning owns the clean-fix regime; kalman takes over once noise nears δ.")
	res.Tables = append(res.Tables, tb2)
	return res, nil
}

// runE7: same stream, five filters — well-specified, under-modeled (Q too
// small) with and without adaptation, and over-modeled (Q too large) with
// and without adaptation.
//
// The asymmetry this experiment documents is a genuine property of
// adaptation inside a suppression protocol: the replica only ever sees
// the *censored* innovation stream (exactly the measurements that beat
// δ). An under-confident filter keeps producing out-of-bound innovations,
// so its inconsistency remains visible and NIS-driven adaptation repairs
// it. An over-confident filter's tell-tale innovations — the small ones —
// are precisely the ones suppression hides, so it cannot diagnose itself
// from protocol traffic alone; its message cost stays near the cache
// baseline (which is its limiting behaviour) rather than degrading.
func runE7(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	trueQ, trueR := 0.25, 1.0
	mk := func() stream.Stream {
		return stream.NewRandomWalk(cfg.Seed, 0, math.Sqrt(trueQ), math.Sqrt(trueR), cfg.Ticks)
	}
	vol := measureVolatility(mk)
	delta := 3 * vol

	rw := func(q, r float64, adaptive bool) predictor.Spec {
		return predictor.Spec{Kind: predictor.KindKalman, Adaptive: adaptive,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: q, R: r}}
	}
	cases := []struct {
		label string
		spec  predictor.Spec
	}{
		{"well-specified (q,r true)", rw(trueQ, trueR, false)},
		{"under-modeled q÷100 (static)", rw(trueQ/100, trueR, false)},
		{"under-modeled q÷100 (adaptive)", rw(trueQ/100, trueR, true)},
		{"over-modeled q×100 (static)", rw(trueQ*100, trueR, false)},
		{"over-modeled q×100 (adaptive)", rw(trueQ*100, trueR, true)},
	}
	tb := metrics.NewTable(
		fmt.Sprintf("E7: random walk q=%.3g r=%.3g, δ=%.3g, T=%d", trueQ, trueR, delta, cfg.Ticks),
		"filter", "msgs", "rmse", "suppression")
	for _, c := range cases {
		rs, err := Run(c.spec, delta, core.NormInf, mk())
		if err != nil {
			return nil, err
		}
		tb.AddRow(c.label, metrics.I(rs.Messages), metrics.F(rs.Err.RMSE()), metrics.Pct(rs.SuppressionRatio()))
	}
	tb.AddNote("adaptation repairs under-modeling (its inconsistency survives δ-censoring of innovations);")
	tb.AddNote("over-modeling is invisible to the replica — the innovations that would reveal it are suppressed.")
	return &Result{ID: "E7", Title: "Adaptive noise estimation", Tables: []*metrics.Table{tb}}, nil
}

// runE8: many heterogeneous streams under a shared message budget; the
// allocators compete on mean achieved δ (precision loss) at equal spend.
func runE8(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	const nStreams = 32
	budgets := []float64{0.5, 1, 2, 4} // total messages/tick across all streams

	tb := metrics.NewTable(
		fmt.Sprintf("E8: %d random-walk streams (σ log-spread 0.1–10), T=%d", nStreams, cfg.Ticks),
		"budget/tick", "allocator", "achieved/tick", "mean δ", "max δ", "realloc rounds")
	for _, budget := range budgets {
		for _, allocName := range []string{"uniform", "fair-share", "water-filling", "aimd"} {
			achieved, meanD, maxD, rounds, err := runBudget(cfg, allocName, budget, nStreams)
			if err != nil {
				return nil, err
			}
			tb.AddRow(metrics.F(budget), allocName, metrics.F(achieved),
				metrics.F(meanD), metrics.F(maxD), metrics.I(rounds))
		}
	}
	tb.AddNote("at equal achieved rate, lower mean δ = better precision per message.")
	return &Result{ID: "E8", Title: "Budgeted precision", Tables: []*metrics.Table{tb}}, nil
}

// runBudget drives nStreams heterogeneous random walks under a shared
// message budget and reports the second-half achieved rate, the final
// δ spread and the number of reallocation rounds.
func runBudget(cfg Config, allocName string, budget float64, nStreams int) (achievedRate, meanDelta, maxDelta float64, rounds int64, err error) {
	sys, err := core.NewSystem(core.SystemConfig{BudgetPerTick: budget, Allocator: allocName, AllocPeriod: 500})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	handles := make([]*core.StreamHandle, nStreams)
	gens := make([]stream.Stream, nStreams)
	for i := 0; i < nStreams; i++ {
		// Volatilities log-spaced over two decades.
		sigma := 0.1 * math.Pow(100, float64(i)/float64(nStreams-1))
		handles[i], err = sys.Attach(core.StreamConfig{
			ID:        fmt.Sprintf("s%02d", i),
			Predictor: core.KalmanRandomWalk(sigma*sigma, 0.01),
			Delta:     sigma,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		g := stream.NewRandomWalk(cfg.Seed+int64(i), 0, sigma, sigma/20, cfg.Ticks)
		// Points are consumed within the loop iteration, never retained.
		g.ReuseBuffers()
		gens[i] = g
	}
	// Measure the achieved rate over the second half, after convergence.
	half := cfg.Ticks / 2
	var sentAtHalf int64
	for tick := int64(0); tick < cfg.Ticks; tick++ {
		if err := sys.Advance(); err != nil {
			return 0, 0, 0, 0, err
		}
		for i, g := range gens {
			p, ok := g.Next()
			if !ok {
				return 0, 0, 0, 0, fmt.Errorf("harness: stream ended early")
			}
			if _, err := handles[i].Observe(p.Value); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		if tick == half {
			sentAtHalf = sys.TotalMessages()
		}
	}
	// Settle the last tick: the coordinator is ticked for tick t by the
	// Advance that follows it, and the final window closes on this one.
	if err := sys.Advance(); err != nil {
		return 0, 0, 0, 0, err
	}
	var sumD float64
	for _, h := range handles {
		d := h.Delta()
		sumD += d
		if d > maxDelta {
			maxDelta = d
		}
	}
	achievedRate = float64(sys.TotalMessages()-sentAtHalf) / float64(cfg.Ticks-half)
	return achievedRate, sumD / float64(nStreams), maxDelta, sys.AllocRounds(), nil
}

// runE9: aggregate queries over a fleet; report how tight the composed
// bounds are against realized error, and that they are never violated.
func runE9(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	const nStreams = 16
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return nil, err
	}
	ids := make([]string, nStreams)
	handles := make([]*core.StreamHandle, nStreams)
	gens := make([]stream.Stream, nStreams)
	delta := 1.0
	for i := 0; i < nStreams; i++ {
		ids[i] = fmt.Sprintf("sensor%02d", i)
		handles[i], err = sys.Attach(core.StreamConfig{ID: ids[i], Predictor: core.KalmanRandomWalk(0.25, 0.01), Delta: delta})
		if err != nil {
			return nil, err
		}
		gens[i] = stream.NewOU(cfg.Seed+int64(i), 20+float64(i), 0.02, 0.5, 0.1, cfg.Ticks)
	}

	var avgViol, sumViol metrics.Violations
	var avgErr, sumErr metrics.Error
	var avgBound, sumBound float64
	var samples int64
	var totalMsgs int64
	for tick := int64(0); tick < cfg.Ticks; tick++ {
		if err := sys.Advance(); err != nil {
			return nil, err
		}
		var trueSum float64
		for i, g := range gens {
			p, ok := g.Next()
			if !ok {
				return nil, fmt.Errorf("harness: stream ended early")
			}
			if _, err := handles[i].Observe(p.Value); err != nil {
				return nil, err
			}
			trueSum += p.Value[0]
		}
		sum, err := sys.Sum(ids)
		if err != nil {
			return nil, err
		}
		avg, err := sys.Average(ids)
		if err != nil {
			return nil, err
		}
		sumErr.AddScalar(sum.Estimate - trueSum)
		avgErr.AddScalar(avg.Estimate - trueSum/nStreams)
		sumViol.Check(math.Abs(sum.Estimate-trueSum), sum.Bound)
		avgViol.Check(math.Abs(avg.Estimate-trueSum/nStreams), avg.Bound)
		sumBound += sum.Bound
		avgBound += avg.Bound
		samples++
	}
	for _, h := range handles {
		totalMsgs += h.Stats().Sent
	}

	tb := metrics.NewTable(
		fmt.Sprintf("E9: SUM/AVG over %d OU sensors, δ=%g each, T=%d (total msgs %d of %d source-ticks)",
			nStreams, delta, cfg.Ticks, totalMsgs, cfg.Ticks*nStreams),
		"query", "mean |err|", "max |err|", "mean bound", "tightness", "violations")
	tb.AddRow("SUM", metrics.F(sumErr.MAE()), metrics.F(sumErr.MaxAbs()),
		metrics.F(sumBound/float64(samples)),
		metrics.Ratio(sumErr.MAE(), sumBound/float64(samples)), metrics.I(sumViol.Count))
	tb.AddRow("AVG", metrics.F(avgErr.MAE()), metrics.F(avgErr.MaxAbs()),
		metrics.F(avgBound/float64(samples)),
		metrics.Ratio(avgErr.MAE(), avgBound/float64(samples)), metrics.I(avgViol.Count))
	tb.AddNote("violations must be 0; tightness < 1 means bounds are conservative (errors partially cancel).")
	return &Result{ID: "E9", Title: "Aggregate query precision", Tables: []*metrics.Table{tb}}, nil
}

// runE10: cumulative message counts at checkpoints across a stream whose
// dynamics change every segment. Adaptation shows up as message bursts at
// switches followed by renewed suppression.
func runE10(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	segLen := cfg.Ticks / 10
	if segLen == 0 {
		segLen = 1
	}
	mk := func() stream.Stream { return stream.NewRegimeSwitching(cfg.Seed, segLen, 0.2, cfg.Ticks) }
	vol := measureVolatility(mk)
	delta := 2 * vol

	methods := baselineMethods(cvModel(0.05, 0.04))
	checkpoints := 10
	counts := make(map[string][]int64, len(methods))
	for _, m := range methods {
		cum, err := cumulativeMessages(m.spec, delta, mk(), cfg.Ticks, checkpoints)
		if err != nil {
			return nil, err
		}
		counts[m.name] = cum
	}

	tb := metrics.NewTable(
		fmt.Sprintf("E10: cumulative messages on a regime-switching stream (segment=%d ticks, δ=%.3g), T=%d",
			segLen, delta, cfg.Ticks),
		"tick", "cache", "dead-reckon", "ewma", "holt", "kalman")
	for i := 0; i < checkpoints; i++ {
		tick := (int64(i) + 1) * cfg.Ticks / int64(checkpoints)
		tb.AddRow(metrics.I(tick),
			metrics.I(counts["cache"][i]), metrics.I(counts["dead-reckon"][i]),
			metrics.I(counts["ewma"][i]), metrics.I(counts["holt"][i]),
			metrics.I(counts["kalman"][i]))
	}
	tb.AddNote("per-segment increments spike at regime switches, then flatten as each method re-adapts.")
	return &Result{ID: "E10", Title: "Regime-change adaptation", Tables: []*metrics.Table{tb}}, nil
}

// cumulativeMessages runs the protocol and snapshots the message count at
// n evenly spaced checkpoints.
func cumulativeMessages(spec predictor.Spec, delta float64, st stream.Stream, ticks int64, n int) ([]int64, error) {
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return nil, err
	}
	h, err := sys.Attach(core.StreamConfig{ID: st.Name(), Predictor: spec, Delta: delta})
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, n)
	next := ticks / int64(n)
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		if err := sys.Advance(); err != nil {
			return nil, err
		}
		if _, err := h.Observe(p.Value); err != nil {
			return nil, err
		}
		if p.Tick+1 == next {
			out = append(out, h.Stats().Sent)
			next += ticks / int64(n)
		}
	}
	for len(out) < n {
		out = append(out, h.Stats().Sent)
	}
	return out, nil
}
