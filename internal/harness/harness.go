// Package harness defines and runs the evaluation suite E1–E13: the
// reconstruction of every table and figure in the paper's evaluation (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for results and
// expected shapes). Each experiment produces plain-text tables; figures
// are rendered as x/y series tables.
package harness

import (
	"fmt"
	"sort"
	"sync"

	"kalmanstream/internal/core"
	"kalmanstream/internal/metrics"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// Config parameterizes an experiment run. The zero value means "paper
// scale"; tests and smoke runs shrink Ticks.
type Config struct {
	// Ticks is the stream length (default 50000).
	Ticks int64
	// Seed drives every generator in the experiment (default 42).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Ticks <= 0 {
		c.Ticks = 50000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
}

// String renders all tables.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += "\n" + t.String()
	}
	return out
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID (E1, E10 sorts after E9 via
// numeric-aware ordering).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
	}
	return e, nil
}

// RunAll runs the given experiments with at most parallel of them in
// flight at once (parallel < 2 means serial), returning results in input
// order. Experiments are self-contained — each builds its own servers,
// sources, links, and seeded generators from cfg — so concurrent runs
// produce exactly the tables a serial run does; only wall-clock time
// changes. The first error wins and is returned after in-flight
// experiments drain.
func RunAll(experiments []Experiment, cfg Config, parallel int) ([]*Result, error) {
	results := make([]*Result, len(experiments))
	if parallel < 2 || len(experiments) < 2 {
		for i, e := range experiments {
			res, err := e.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.ID, err)
			}
			results[i] = res
		}
		return results, nil
	}
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, parallel)
		errOnce  sync.Once
		firstErr error
	)
	for i, e := range experiments {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := e.Run(cfg)
			if err != nil {
				errOnce.Do(func() { firstErr = fmt.Errorf("%s: %w", e.ID, err) })
				return
			}
			results[i] = res
		}(i, e)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// RunStats summarizes one (method, δ, stream) protocol run.
type RunStats struct {
	Method     string
	Delta      float64
	Ticks      int64
	Messages   int64
	Bytes      int64
	Heartbeats int64
	// Err accumulates |server answer − measurement| over every tick.
	Err metrics.Error
	// SuppressedErr accumulates the same but only over suppressed ticks,
	// where the δ guarantee applies.
	SuppressedErr metrics.Error
	// Violations checks the δ bound on suppressed ticks; its Count must
	// be zero on unimpaired links.
	Violations metrics.Violations
	// Audit is the online precision auditor's independent view of the
	// run: every tick's ground truth compared against the answer the
	// server was serving. On loss-free links AuditClean() must hold.
	Audit trace.AuditStats
}

// AuditClean reports whether the run has no unexplained δ violations:
// the online auditor saw every tick, its suppression count reconciles
// exactly with the gate's (ticks minus messages), and no suppressed tick
// exceeded the served bound. Experiments on loss-free links assert this;
// impaired-link experiments expect it to fail and report how.
func (r RunStats) AuditClean() bool {
	return r.Audit.Violations == 0 &&
		r.Audit.Ticks == r.Ticks &&
		r.Audit.Suppressed == r.Ticks-r.Messages
}

// SuppressionRatio is the fraction of ticks with no message.
func (r RunStats) SuppressionRatio() float64 {
	if r.Ticks == 0 {
		return 0
	}
	return float64(r.Ticks-r.Messages) / float64(r.Ticks)
}

// Run drives one (predictor, δ) pair over a stream through a one-stream
// core.System — the composition the library ships — and collects
// statistics.
func Run(spec predictor.Spec, delta float64, norm core.Norm, st stream.Stream) (RunStats, error) {
	sys, err := core.NewSystem(core.SystemConfig{})
	if err != nil {
		return RunStats{}, err
	}
	id := st.Name()
	h, err := sys.Attach(core.StreamConfig{ID: id, Predictor: spec, Delta: delta, DeviationNorm: norm})
	if err != nil {
		return RunStats{}, err
	}

	stats := RunStats{Delta: delta}
	// The auditor gets a private registry so experiment runs never bleed
	// series into the process-wide default, and no journal — experiments
	// need its counters, not its timeline. It is fed from the one answer
	// read below rather than armed as SystemConfig.Audit, which would
	// read (and allocate) the same answer a second time every tick.
	auditor := trace.NewAuditor(telemetry.New(), trace.NewJournal(1, 1))
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		if err := sys.Advance(); err != nil {
			return stats, err
		}
		sent, err := h.Observe(p.Value)
		if err != nil {
			return stats, err
		}
		est, bound, err := sys.Vector(id)
		if err != nil {
			return stats, err
		}
		dev := norm.Deviation(p.Value, est)
		stats.Err.AddScalar(dev)
		if !sent {
			stats.SuppressedErr.AddScalar(dev)
			stats.Violations.Check(dev, bound)
		}
		auditor.Check(id, p.Tick, dev, bound, !sent)
		stats.Ticks++
	}
	s := h.Stats()
	stats.Messages = s.Sent
	stats.Bytes = h.LinkStats().Bytes
	stats.Heartbeats = s.Heartbeats
	stats.Audit = auditor.Stats(id)
	return stats, nil
}

// method pairs a display name with a predictor spec.
type method struct {
	name string
	spec predictor.Spec
}

// baselineMethods returns the five comparison methods for scalar streams,
// with the Kalman predictor using the given model.
func baselineMethods(kfModel predictor.ModelSpec) []method {
	return []method{
		{"cache", predictor.Spec{Kind: predictor.KindStatic, Dim: 1}},
		{"dead-reckon", predictor.Spec{Kind: predictor.KindDeadReckoning, Dim: 1}},
		{"ewma", predictor.Spec{Kind: predictor.KindEWMA, Dim: 1, Alpha: 0.3}},
		{"holt", predictor.Spec{Kind: predictor.KindHolt, Dim: 1, Alpha: 0.4, Beta: 0.1}},
		{"kalman", predictor.Spec{Kind: predictor.KindKalman, Model: kfModel}},
	}
}

// cvModel is the default constant-velocity Kalman model used when a
// stream has smooth local dynamics.
func cvModel(q, r float64) predictor.ModelSpec {
	return predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: q, R: r}
}

// deltaGrid returns bounds expressed as multiples of a stream's per-tick
// volatility so "tight" and "loose" are comparable across streams.
func deltaGrid(volatility float64, multiples ...float64) []float64 {
	out := make([]float64, len(multiples))
	for i, m := range multiples {
		out[i] = m * volatility
	}
	return out
}

// measureVolatility records a fresh copy of the generator to estimate its
// per-tick movement scale.
func measureVolatility(mk func() stream.Stream) float64 {
	pts := stream.Record(mk())
	return stream.Volatility(pts, 0)
}
