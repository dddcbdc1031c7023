// Command streamkf runs the evaluation suite and generates stream traces.
//
// Usage:
//
//	streamkf list
//	streamkf run [-ticks N] [-seed S] all|E1 [E2 ...]
//	streamkf gen -kind KIND [-n N] [-seed S] [-out FILE]
//
// `run` regenerates the paper's tables and figures (see EXPERIMENTS.md);
// `gen` writes synthetic traces as CSV for external tools.
package main

import (
	"flag"
	"fmt"
	"os"

	"kalmanstream/internal/buildinfo"
	"kalmanstream/internal/core"
	"kalmanstream/internal/harness"
	"kalmanstream/internal/metrics"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "recovery":
		err = cmdRecovery(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "graph":
		err = cmdGraph(os.Args[2:])
	case "bundle":
		err = cmdBundle(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Println(buildinfo.Version("streamkf"))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "streamkf: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamkf: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `streamkf — adaptive stream resource management experiments

commands:
  list                              list experiments
  run [-ticks N] [-seed S] [-stats] [-parallel N] IDS...
                                    run experiments ("all" for the suite);
                                    -stats prints a runtime telemetry table
                                    after each experiment; -parallel N runs
                                    up to N experiments concurrently with
                                    byte-identical output
  gen -kind KIND [-n N] [-seed S] [-out FILE]
                                    generate a trace as CSV
  replay -file trace.csv [-method M] [-deltamult K | -delta D] [-norm linf|l2]
                                    run the suppression protocol over a CSV
                                    trace and report message savings
  trace [-http H:P] [-stream ID] [-n N] [-json]
                                    fetch a live kfserver's /debug/trace
                                    timeline; with -demo, run a local traced
                                    simulation and render its lifecycle
                                    (gate → link → apply → query) + audit
  selfcheck [-seed S]               verify the protocol invariants (hard
                                    bound, replica lock-step, composition)
                                    on this machine's floating point
  chaos [-ticks N] [-seed S] [-schedule SPEC] [-out FILE] [-bundle-dir DIR]
        [-history-out FILE] [-no-health] [-no-freshness]
                                    drive a deterministic fault schedule
                                    (loss, delay, reorder, duplicate,
                                    partition) through the pipeline and
                                    verify bounded-staleness recovery;
                                    exits nonzero when precision is not
                                    restored within the window, an SLO
                                    alert never clears, a page fires
                                    without a matching incident bundle,
                                    or a delay fault fails to produce
                                    the freshness degrade-then-clear
                                    envelope
  recovery -server BIN [-ticks N] [-streams N] [-wal-dir DIR] [-report FILE]
                                    crash-recovery smoke: spawn a kfserver
                                    with a write-ahead log, drive a workload
                                    over TCP, SIGKILL it mid-flush, restart
                                    it on the same directory, and assert
                                    recovery replayed the log, triggered no
                                    resync storm, kept the audit clean, and
                                    serves answers byte-identical to a
                                    server that never died; exits nonzero
                                    otherwise
  top [-http H:P] [-interval D] [-n N]
                                    live ANSI dashboard over a kfserver's
                                    /debug/health: per-SLO burn rates with
                                    window sparklines, per-stream send and
                                    suppress rates, stale flags, the recent
                                    alert log, the freshness latency pane
                                    (/debug/latency), and the flight
                                    recorder's top-offender tables
  graph [-http H:P] [-series NAME | -contains LBL] [-tier K] [-n N] [-agg]
                                    render a kfserver's telemetry history
                                    (/debug/history) as ASCII sparklines:
                                    per-bucket counter rates, gauge values,
                                    or histogram p99 at any resolution
                                    tier; with no selector, print the
                                    store index and recent anomaly
                                    findings
  bundle [-http H:P] [-id ID] [-json]
                                    list a kfserver's incident bundles, or
                                    fetch one by ID and render the forensic
                                    report (alert, health snapshot, top-k
                                    offenders, logs, runtime profile delta)
  version                           print the build's VCS revision
trace kinds: random-walk, linear-drift, sine, ou, regime, network, gbm, waypoint2d
replay methods: cache, dead-reckoning, ewma, kalman-rw, kalman-cv, kalman-bank, all
`)
}

func cmdList() error {
	for _, e := range harness.All() {
		fmt.Printf("%-4s %s\n", e.ID, e.Title)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	ticks := fs.Int64("ticks", 50000, "stream length per experiment")
	seed := fs.Int64("seed", 42, "generator seed")
	stats := fs.Bool("stats", false, "print a runtime telemetry table after each experiment")
	parallel := fs.Int("parallel", 1, "number of experiments to run concurrently (e.g. GOMAXPROCS); output is identical to a serial run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("run: no experiment ids (try \"all\")")
	}
	if *stats && *parallel > 1 {
		// Concurrent experiments interleave their counters in the shared
		// default registry; a per-experiment table would be fiction.
		return fmt.Errorf("run: -stats requires -parallel 1 (telemetry tables are per-experiment)")
	}
	var experiments []harness.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		experiments = harness.All()
	} else {
		for _, id := range ids {
			e, err := harness.ByID(id)
			if err != nil {
				return err
			}
			experiments = append(experiments, e)
		}
	}
	cfg := harness.Config{Ticks: *ticks, Seed: *seed}
	if *parallel > 1 {
		results, err := harness.RunAll(experiments, cfg, *parallel)
		if err != nil {
			return err
		}
		for _, res := range results {
			fmt.Println(res.String())
		}
		return nil
	}
	for _, e := range experiments {
		if *stats {
			// Scope the default registry to this experiment so the table
			// reflects it alone. Streams sharing an ID across an
			// experiment's methods aggregate into one series.
			telemetry.Default.Reset()
		}
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(res.String())
		if *stats {
			fmt.Println(telemetryTable(e.ID).String())
		}
	}
	return nil
}

// telemetryTable renders the default registry's current state as a
// metrics.Table: one row per series, with histogram rows summarized by
// count, mean, and tail quantiles.
func telemetryTable(id string) *metrics.Table {
	tb := metrics.NewTable(fmt.Sprintf("%s telemetry (runtime counters)", id),
		"metric", "labels", "value", "count", "mean", "p95")
	for _, s := range telemetry.Default.Snapshot() {
		switch s.Kind {
		case telemetry.KindHistogram:
			tb.AddRow(s.Name, s.Labels, "", metrics.I(s.Count), metrics.F(s.Mean()), metrics.F(s.Quantile(0.95)))
		case telemetry.KindGauge:
			tb.AddRow(s.Name, s.Labels, metrics.F(s.Value), "", "", "")
		default:
			tb.AddRow(s.Name, s.Labels, metrics.I(int64(s.Value)), "", "", "")
		}
	}
	if tb.Rows() == 0 {
		tb.AddNote("no runtime telemetry recorded")
	}
	return tb
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "", "trace kind (see help)")
	n := fs.Int64("n", 10000, "number of points")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var st stream.Stream
	switch *kind {
	case "random-walk":
		st = stream.NewRandomWalk(*seed, 0, 1, 0.1, *n)
	case "linear-drift":
		st = stream.NewLinearDrift(*seed, 0, 0.5, 0.1, *n)
	case "sine":
		st = stream.NewSine(*seed, 0, 10, 200, 0, 0.3, *n)
	case "ou":
		st = stream.NewOU(*seed, 50, 0.05, 1, 0.1, *n)
	case "regime":
		st = stream.NewRegimeSwitching(*seed, *n/10, 0.2, *n)
	case "network":
		st = stream.NewNetworkLoad(*seed, *n)
	case "gbm":
		st = stream.NewGBM(*seed, 100, 0.00002, 0.003, 0.01, *n)
	case "waypoint2d":
		st = stream.NewWaypoint2D(*seed, 1000, 1, 5, 0.5, 20, *n)
	case "":
		return fmt.Errorf("gen: -kind is required")
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return stream.WriteCSV(w, stream.Record(st))
}

// replaySpec builds a predictor spec for a trace of the given dimension
// and per-tick volatility. The Kalman noise parameters default to the
// trace's own movement scale, which is the sensible zero-configuration
// choice.
func replaySpec(method string, dim int, vol float64) (predictor.Spec, error) {
	q := vol * vol
	if q == 0 {
		q = 1e-6
	}
	r := q / 100
	switch method {
	case "cache":
		return predictor.Spec{Kind: predictor.KindStatic, Dim: dim}, nil
	case "dead-reckoning":
		return predictor.Spec{Kind: predictor.KindDeadReckoning, Dim: dim}, nil
	case "ewma":
		return predictor.Spec{Kind: predictor.KindEWMA, Dim: dim, Alpha: 0.3}, nil
	case "kalman-rw":
		if dim == 1 {
			return predictor.Spec{Kind: predictor.KindKalman,
				Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: q, R: r}}, nil
		}
		return predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalkND, Q: q, R: r, Dim: dim}}, nil
	case "kalman-cv":
		switch dim {
		case 1:
			return predictor.Spec{Kind: predictor.KindKalman,
				Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: q / 10, R: r}}, nil
		case 2:
			return predictor.Spec{Kind: predictor.KindKalman,
				Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity2D, Q: q / 10, R: r}}, nil
		default:
			return predictor.Spec{}, fmt.Errorf("replay: kalman-cv supports 1-D and 2-D traces, got %d-D", dim)
		}
	case "kalman-bank":
		if dim != 1 {
			return predictor.Spec{}, fmt.Errorf("replay: kalman-bank supports 1-D traces, got %d-D", dim)
		}
		return predictor.Spec{Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
			{Kind: predictor.ModelRandomWalk, Q: q, R: r},
			{Kind: predictor.ModelConstantVelocity, Q: q / 100, R: r},
			{Kind: predictor.ModelConstantVelocity, Q: q / 10, R: r},
		}}, nil
	default:
		return predictor.Spec{}, fmt.Errorf("replay: unknown method %q", method)
	}
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	file := fs.String("file", "", "CSV trace file (as produced by gen)")
	method := fs.String("method", "all", "predictor method, or \"all\" to compare")
	delta := fs.Float64("delta", 0, "absolute precision bound (overrides -deltamult)")
	deltaMult := fs.Float64("deltamult", 2, "precision bound as a multiple of trace volatility")
	normName := fs.String("norm", "linf", "gate norm: linf or l2")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("replay: -file is required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	points, err := stream.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(points) == 0 {
		return fmt.Errorf("replay: trace %s is empty", *file)
	}
	dim := len(points[0].Value)
	vol := stream.Volatility(points, 0)
	d := *delta
	if d == 0 {
		d = *deltaMult * vol
	}
	var norm core.Norm
	switch *normName {
	case "linf":
		norm = core.NormInf
	case "l2":
		norm = core.NormL2
	default:
		return fmt.Errorf("replay: unknown norm %q", *normName)
	}

	methods := []string{*method}
	if *method == "all" {
		methods = []string{"cache", "dead-reckoning", "ewma", "kalman-rw", "kalman-cv"}
		if dim == 1 {
			methods = append(methods, "kalman-bank")
		}
	}
	tb := metrics.NewTable(
		fmt.Sprintf("replay %s: %d points, dim %d, volatility %.4g, δ=%.4g (%s gate)",
			*file, len(points), dim, vol, d, norm),
		"method", "msgs", "suppression", "bytes", "rmse", "max-err(suppr)", "violations")
	for _, m := range methods {
		spec, err := replaySpec(m, dim, vol)
		if err != nil {
			return err
		}
		rs, err := harness.Run(spec, d, norm, stream.Replay(*file, dim, points))
		if err != nil {
			return fmt.Errorf("replay %s: %w", m, err)
		}
		tb.AddRow(m, metrics.I(rs.Messages), metrics.Pct(rs.SuppressionRatio()), metrics.I(rs.Bytes),
			metrics.F(rs.Err.RMSE()), metrics.F(rs.SuppressedErr.MaxAbs()), metrics.I(rs.Violations.Count))
	}
	_, err = tb.WriteTo(os.Stdout)
	return err
}
