package main

import (
	"flag"
	"fmt"
	"math"

	"kalmanstream/internal/core"
	"kalmanstream/internal/harness"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
)

// cmdSelfcheck re-verifies the protocol's core invariants on the machine
// it runs on — a deployment smoke test for the determinism assumptions
// (identical floating-point behaviour of replicas) that the test suite
// verifies in CI.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	checks := []struct {
		name string
		run  func(seed int64) error
	}{
		{"hard bound on suppressed ticks (all predictor kinds)", checkHardBound},
		{"replica lock-step (source view == server view)", checkLockstep},
		{"aggregate bound composition (SUM/AVG)", checkComposition},
		{"resync restores exact lock-step under loss", checkResync},
	}
	failed := 0
	for _, c := range checks {
		if err := c.run(*seed); err != nil {
			failed++
			fmt.Printf("FAIL  %s: %v\n", c.name, err)
			continue
		}
		fmt.Printf("ok    %s\n", c.name)
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d of %d checks failed", failed, len(checks))
	}
	fmt.Println("all invariants hold on this machine")
	return nil
}

func selfcheckSpecs() []predictor.Spec {
	return []predictor.Spec{
		{Kind: predictor.KindStatic, Dim: 1},
		{Kind: predictor.KindDeadReckoning, Dim: 1},
		{Kind: predictor.KindEWMA, Dim: 1, Alpha: 0.4},
		{Kind: predictor.KindHolt, Dim: 1, Alpha: 0.4, Beta: 0.1},
		{Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}},
		{Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
			{Kind: predictor.ModelRandomWalk, Q: 0.5, R: 0.1},
			{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1},
		}},
	}
}

func checkHardBound(seed int64) error {
	for i, spec := range selfcheckSpecs() {
		rs, err := harness.Run(spec, 1.5, core.NormInf,
			stream.NewRegimeSwitching(seed+int64(i), 500, 0.2, 4000))
		if err != nil {
			return err
		}
		if rs.Violations.Count > 0 {
			return fmt.Errorf("predictor %d violated δ %d times (worst excess %g)",
				i, rs.Violations.Count, rs.Violations.Worst)
		}
	}
	return nil
}

func checkLockstep(seed int64) error {
	for i, spec := range selfcheckSpecs() {
		sys, err := core.NewSystem(core.SystemConfig{})
		if err != nil {
			return err
		}
		h, err := sys.Attach(core.StreamConfig{ID: "s", Predictor: spec, Delta: 1})
		if err != nil {
			return err
		}
		gen := stream.NewSine(seed+int64(i), 0, 10, 150, 0, 0.2, 2000)
		for {
			p, ok := gen.Next()
			if !ok {
				break
			}
			if err := sys.Advance(); err != nil {
				return err
			}
			sent, err := h.Observe(p.Value)
			if err != nil {
				return err
			}
			if sent {
				continue
			}
			if err := sameView(sys, h); err != nil {
				return fmt.Errorf("predictor %d tick %d: %w", i, p.Tick, err)
			}
		}
	}
	return nil
}

// sameView fails unless the source's view of the replica equals the
// server's, bit for bit.
func sameView(sys *core.System, h *core.StreamHandle) error {
	info, err := sys.Info(h.ID())
	if err != nil {
		return err
	}
	sp := h.Prediction()
	for k := range sp {
		if sp[k] != info.Prediction[k] {
			return fmt.Errorf("source %v vs server %v", sp, info.Prediction)
		}
	}
	return nil
}

func checkComposition(seed int64) error {
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return err
	}
	const n = 8
	ids := make([]string, n)
	handles := make([]*core.StreamHandle, n)
	gens := make([]stream.Stream, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("s%d", i)
		handles[i], err = sys.Attach(core.StreamConfig{ID: ids[i], Predictor: core.KalmanRandomWalk(0.5, 0.01), Delta: 1})
		if err != nil {
			return err
		}
		gens[i] = stream.NewRandomWalk(seed+int64(i), 0, 0.7, 0.05, 2000)
	}
	for tick := 0; tick < 2000; tick++ {
		if err := sys.Advance(); err != nil {
			return err
		}
		var trueSum float64
		for i, h := range handles {
			p, ok := gens[i].Next()
			if !ok {
				return fmt.Errorf("stream ended early")
			}
			if _, err := h.Observe(p.Value); err != nil {
				return err
			}
			trueSum += p.Value[0]
		}
		sum, err := sys.Sum(ids)
		if err != nil {
			return err
		}
		if math.Abs(sum.Estimate-trueSum) > sum.Bound+1e-9 {
			return fmt.Errorf("tick %d: |%g − %g| > %g", tick, sum.Estimate, trueSum, sum.Bound)
		}
	}
	return nil
}

func checkResync(seed int64) error {
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return err
	}
	h, err := sys.Attach(core.StreamConfig{
		ID: "s", Predictor: core.KalmanConstantVelocity(0.05, 0.1), Delta: 1,
		ResyncEvery: 1, LinkDropProb: 0.3, LinkSeed: seed,
	})
	if err != nil {
		return err
	}
	gen := stream.NewSine(seed, 0, 10, 150, 0, 0.2, 3000)
	delivered := int64(0)
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if err := sys.Advance(); err != nil {
			return err
		}
		if _, err := h.Observe(p.Value); err != nil {
			return err
		}
		if n := h.LinkStats().Messages; n > delivered {
			delivered = n
			if err := sameView(sys, h); err != nil {
				return fmt.Errorf("tick %d: divergence right after delivered resync: %w", p.Tick, err)
			}
		}
	}
	if delivered == 0 {
		return fmt.Errorf("no resyncs delivered — check inconclusive")
	}
	return nil
}
