// Command kfsource simulates a data source feeding a kfserver over TCP:
// it generates a synthetic stream, runs the precision gate locally, ships
// only the necessary corrections, and periodically queries its own stream
// back to demonstrate the bounded answers.
//
// Usage:
//
//	kfsource [-addr localhost:9653] [-id sensor-1] [-kind sine]
//	         [-delta 0.5] [-n 10000] [-seed 1] [-interval 0] [-trace]
//	         [-stamp]
//	         [-reconnect] [-retry-max 8] [-retry-base 50ms] [-retry-cap 2s]
//
// -stamp stamps every shipped correction with an origin timestamp
// (monotonic-anchored wall clock) carried in-band on the wire, and pings
// the server periodically so it can estimate this host's clock skew; the
// server's /debug/latency page then shows true gate→apply latency with
// per-correction exemplars. Unstamped runs are byte-identical on the
// wire to builds that predate the feature.
//
// -interval sets a real-time delay between ticks (e.g. 10ms); the default
// of 0 replays as fast as possible. -trace journals every gate decision
// locally and ships the batches in-band to the server, whose /debug/trace
// endpoint then shows the full gate → apply → query lifecycle and whose
// precision auditor counts δ violations; a final audit line prints here.
//
// -reconnect arms automatic reconnection: a dropped connection is
// redialed with capped exponential backoff and jitter, the registration
// is replayed (the server resumes the surviving replica), and the gate
// force-resyncs on the next tick so any corrections lost with the old
// connection stop mattering. -retry-max/-retry-base/-retry-cap tune the
// dial budget and backoff window.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"kalmanstream/internal/buildinfo"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:9653", "kfserver address")
	id := flag.String("id", "sensor-1", "stream id")
	kind := flag.String("kind", "sine", "stream kind: sine, random-walk, network, gbm, ou")
	delta := flag.Float64("delta", 0.5, "precision bound δ")
	n := flag.Int64("n", 10000, "number of ticks")
	seed := flag.Int64("seed", 1, "generator seed")
	interval := flag.Duration("interval", 0, "real-time delay between ticks")
	traceOn := flag.Bool("trace", false, "journal gate decisions and ship them to the server in-band")
	reconnect := flag.Bool("reconnect", false, "redial dropped connections with exponential backoff and resume the stream")
	retryMax := flag.Int("retry-max", wire.DefaultDialAttempts, "consecutive failed dials before giving up (negative = forever)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "first reconnect backoff step")
	retryCap := flag.Duration("retry-cap", 2*time.Second, "reconnect backoff ceiling")
	coalesce := flag.Bool("coalesce", false, "batch corrections into coalesced wire frames")
	coalesceMax := flag.Int("coalesce-max", 16, "corrections per coalesced frame before a flush")
	coalesceAfter := flag.Duration("coalesce-after", 5*time.Millisecond, "flush deadline for a partially filled batch (0 = none)")
	stamp := flag.Bool("stamp", false, "stamp each shipped correction with an origin timestamp so the server measures end-to-end freshness (/debug/latency)")
	version := flag.Bool("version", false, "print the build's VCS revision and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("kfsource"))
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).
		With("component", "kfsource", "stream", *id)
	slog.SetDefault(logger)

	var gen stream.Stream
	var spec predictor.Spec
	switch *kind {
	case "sine":
		gen = stream.NewSine(*seed, 50, 10, 300, 0, 0.2, *n)
		spec = predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.01, R: 0.04}}
	case "random-walk":
		gen = stream.NewRandomWalk(*seed, 0, 1, 0.1, *n)
		spec = predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}}
	case "network":
		gen = stream.NewNetworkLoad(*seed, *n)
		spec = predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.5, R: 1}}
	case "gbm":
		gen = stream.NewGBM(*seed, 100, 0.00002, 0.003, 0.01, *n)
		spec = predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.01}}
	case "ou":
		gen = stream.NewOU(*seed, 50, 0.05, 1, 0.1, *n)
		spec = predictor.Spec{Kind: predictor.KindKalman,
			Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.01}}
	default:
		logger.Error("unknown stream kind", "kind", *kind)
		os.Exit(2)
	}

	var client *wire.Client
	var err error
	if *reconnect {
		client, err = wire.DialReconnecting(*addr, wire.ReconnectPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryCap,
			Seed:        *seed,
		})
	} else {
		client, err = wire.Dial(*addr)
	}
	if err != nil {
		logger.Error("dial failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	client.Logger = logger
	if *coalesce {
		// Queries, trace batches, and Close flush the ring implicitly, so
		// the periodic progress query never reads stale answers.
		client.EnableCoalescing(wire.CoalesceConfig{
			MaxCorrections: *coalesceMax,
			FlushAfter:     *coalesceAfter,
		})
	}

	var journal *trace.Journal
	cfg := source.Config{
		StreamID: *id,
		Spec:     spec,
		Delta:    *delta,
	}
	if *traceOn {
		journal = trace.NewJournal(1, trace.DefaultCapacity)
		journal.SetEnabled(true)
		cfg.Trace = journal
	}
	if *stamp {
		// Stamped corrections carry the origin clock in-band; the
		// networked source also pings periodically so the server can
		// subtract this host's clock skew from every span.
		cfg.Stamp = freshness.WallClock()
	}
	ns, err := wire.NewNetworkedSource(client, cfg)
	if err != nil {
		logger.Error("registration failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("registered", "kind", *kind, "delta", *delta, "addr", *addr, "trace", *traceOn, "coalesce", *coalesce, "stamp", *stamp)

	// Mid-stream transport errors end the run gracefully rather than
	// aborting: stop observing, flush a final stats line, close the
	// connection, and report the failure through the exit code.
	failed := false
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := ns.Observe(p.Tick, p.Value); err != nil {
			logger.Error("send failed, shutting down", "tick", p.Tick, "err", err)
			failed = true
			break
		}
		if p.Tick%1000 == 999 {
			ans, err := client.Query(*id, p.Tick)
			if err != nil {
				logger.Error("query failed, shutting down", "tick", p.Tick, "err", err)
				failed = true
				break
			}
			st := ns.Stats()
			fmt.Printf("tick %6d  measured %10.4f  server answers %10.4f ± %.3g  msgs %d/%d (%.1f%% suppressed)\n",
				p.Tick, p.Value[0], ans.Estimate[0], ans.Bound,
				st.Sent, st.Ticks, 100*st.SuppressionRatio())
		}
		if *interval > 0 {
			time.Sleep(*interval)
		}
	}
	st := ns.Stats()
	fmt.Printf("done: %d ticks, %d corrections sent, %.1f%% suppressed\n",
		st.Ticks, st.Sent, 100*st.SuppressionRatio())
	if *traceOn && !failed {
		// Ship the final partial batch so the server's auditor has seen
		// every tick, then fetch its verdict from the metrics snapshot.
		if err := ns.FlushTrace(); err != nil {
			logger.Warn("final trace flush failed", "err", err)
		} else if text, err := client.Metrics(); err != nil {
			logger.Warn("metrics fetch failed", "err", err)
		} else {
			fmt.Printf("audit: server-wide %s\n", auditSummary(text))
		}
	}
	if err := client.Close(); err != nil {
		logger.Warn("close failed", "err", err)
	}
	if failed {
		os.Exit(1)
	}
}

// auditSummary pulls the auditor's totals out of a Prometheus text
// snapshot: audited ticks and δ violations across every traced source
// the server has heard from (this one alone, when it is the server's
// only source). On a loss-free TCP link violations must read 0 — the
// server independently confirming that every suppressed tick stayed
// within the promised bound.
func auditSummary(metricsText string) string {
	var ticks, violations string
	for _, line := range strings.Split(metricsText, "\n") {
		if v, ok := strings.CutPrefix(line, "audit_ticks_total "); ok {
			ticks = v
		} else if v, ok := strings.CutPrefix(line, "audit_delta_violations_total "); ok {
			violations = v
		}
	}
	if ticks == "" || ticks == "0" {
		return "no audit data (gate events not ingested)"
	}
	return fmt.Sprintf("audited %s ticks, %s δ violations", ticks, violations)
}
