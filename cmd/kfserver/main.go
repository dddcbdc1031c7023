// Command kfserver hosts the dual-predictor replica cache over TCP.
// Sources connect with cmd/kfsource (or any client of internal/wire),
// register streams, and ship only the corrections their precision gates
// let through; queries can be answered from any connection with hard
// error bounds. Corrections arrive either as individual frames or — for
// sources started with -coalesce — as batched frames carrying many
// corrections behind one length header; the server decodes those
// zero-copy and applies the whole batch under a single lock acquisition
// (wire_frames_coalesced_total / wire_corrections_per_frame track the
// mix). No flag is needed server-side: both framings are always
// accepted, on the same connection, in any order.
//
// Observability: every connection and stream is instrumented (see the
// README's Observability section for metric names). The telemetry
// snapshot is reachable two ways: over the wire protocol itself via a
// metrics frame, and — when -http is set — over HTTP as Prometheus text
// at /metrics and as JSON at /debug/vars. With -trace the server also
// journals the stream lifecycle (gate decisions ingested from sources,
// replica applies, query serves) and serves it at /debug/trace, with
// the online precision audit alongside. The freshness surface — e2e
// latency and staleness quantiles with resident exemplars, plus
// per-connection clock-skew estimates — is at /debug/latency (sources
// opt in with kfsource -stamp). Go runtime profiles are always
// mounted at /debug/pprof/ on the HTTP mux. Diagnostics are structured
// log/slog records on stderr.
//
// Health: with -http set the server also runs the SLO monitor
// (internal/health) over its own telemetry — four SLOs: δ audit error
// ratio, staleness, frame-handling p99 and freshness p99 — evaluating
// multi-window burn rates each time the telemetry history's 60-tick
// tier closes a window. /healthz answers liveness, /readyz fails while
// any PAGE alert is active, and /debug/health serves the full JSON
// snapshot (per-SLO burn rates and window ratios, active alerts,
// per-stream counters) that `streamkf top` renders live.
//
// Forensics: the flight recorder (internal/diag) runs whenever -http is
// set, and only then — without an HTTP surface nothing could read it or
// page it. Its per-stream corrections and bytes tables are exact: read
// from the stream records when asked for, they cost the ingest path
// nothing. δ-violations and staleness events, which are rare and have no
// record to read, feed two top-k sketches. The recorder freezes an
// incident bundle — alert, health snapshot, offender tables, trace
// tail, recent logs, runtime profile deltas — the moment any SLO pages.
// Bundles are browsable at /debug/bundle (fetch with `streamkf bundle`),
// the live offender tables at /debug/top, and two-sample allocation
// deltas at /debug/pprof/delta. With -bundle-dir, bundles also spool to
// disk as JSON files.
//
// History: with -http set the server also records every registry
// series into the multi-resolution telemetry history (internal/history)
// at -history-interval, serves range queries and anomaly findings at
// /debug/history (rendered by `streamkf graph` and the `streamkf top`
// history pane), and embeds the trailing history of the implicated
// series in every incident bundle. One ticker drives every duty: the
// server's one wall-clock goroutine runs the watchdog scan, the WAL sync
// and checkpoint cadences, and — each -history-interval — the store's
// recording, then the monitor's evaluation of the windows it closed
// (with -history-interval 0 neither of those two runs).
//
// Durability: with -wal-dir the server appends every applied message
// to a write-ahead log (internal/wal) in that directory, group-committed
// on the -wal-flush cadence, and recovers the directory — newest
// checkpoint, then the record tail — before accepting a single
// connection. -checkpoint-every writes periodic predictor-snapshot
// checkpoints that bound replay time and prune covered segments. A
// SIGKILL loses at most one flush interval of traffic, which the
// protocol absorbs: reconnecting sources resync and the monotonic-tick
// guard drops re-sent duplicates (wal_* metrics track the log;
// `make recovery-smoke` gates the whole loop in CI).
//
// Usage:
//
//	kfserver [-addr :9653] [-http :9654] [-trace] [-logjson]
//	         [-stale-after 5s] [-history-interval 1s]
//	         [-bundle-dir dir]
//	         [-wal-dir dir] [-wal-flush 100ms] [-checkpoint-every 30s]
//
// -stale-after arms the staleness watchdog: a registered stream with no
// traffic for that long is marked stale (streams_stale gauge) and its
// source is pushed a resync request over its own connection, repeating
// until traffic resumes. Zero (the default) leaves the watchdog off.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"kalmanstream/internal/buildinfo"
	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wire"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		slog.Error("kfserver failed", "err", err)
		os.Exit(1)
	}
}

// run is the whole server: it parses args, serves until the listener is
// closed, and shuts the server down cleanly. listening, when non-nil, is
// handed the bound listener just before the accept loop starts — how a
// test learns the port behind ":0", and closes it to stop the server.
func run(args []string, listening func(net.Listener)) error {
	fs := flag.NewFlagSet("kfserver", flag.ExitOnError)
	addr := fs.String("addr", ":9653", "listen address")
	httpAddr := fs.String("http", "", "optional HTTP listen address serving /metrics, /debug/vars, /debug/trace, /debug/pprof/, and the health endpoints (e.g. :9654)")
	traceOn := fs.Bool("trace", false, "enable the lifecycle trace journal (browse at /debug/trace)")
	traceCap := fs.Int("trace-buf", trace.DefaultCapacity, "trace ring capacity per shard (newest events win); 72 B per event per shard, allocated only once tracing records")
	staleAfter := fs.Duration("stale-after", 0, "mark a stream stale and push resync requests after this much silence (0 = watchdog off)")
	historyInterval := fs.Duration("history-interval", time.Second, "telemetry history scrape interval, the one clock of /debug/history and the SLO monitor (60 intervals per window; 0 = both off)")
	bundleDir := fs.String("bundle-dir", "", "spool incident bundles to this directory (empty = memory-only ring)")
	walDir := fs.String("wal-dir", "", "write-ahead log directory: append every applied message, recover on startup (empty = no durability)")
	walFlush := fs.Duration("wal-flush", 0, "group-commit fsync cadence for the write-ahead log (0 = default 100ms)")
	checkpointEvery := fs.Duration("checkpoint-every", 0, "write a predictor-snapshot checkpoint (pruning covered log segments) on this cadence (0 = never)")
	logJSON := fs.Bool("logjson", false, "emit logs as JSON instead of text")
	version := fs.Bool("version", false, "print the build's VCS revision and exit")
	fs.Parse(args) // ExitOnError: a bad flag has already exited
	if *version {
		fmt.Println(buildinfo.Version("kfserver"))
		return nil
	}
	// Publish build identity and process start/uptime on the registry so
	// /metrics and /debug/vars can tell a restart from a counter reset.
	defer buildinfo.Register(telemetry.Default)()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	// The ring handler tees every record to stderr while keeping the
	// most recent ones in memory for incident bundles.
	ring := diag.NewRingHandler(512, handler)
	logger := slog.New(ring).With("component", "kfserver")
	slog.SetDefault(logger)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", *addr, err)
	}
	defer l.Close() // for the early returns; Serve returns once it is closed
	journal := trace.NewJournal(trace.DefaultShards, *traceCap)
	journal.SetEnabled(*traceOn)

	// The flight recorder attributes events to streams and freezes
	// incident bundles whenever an SLO pages. Its tables are served over
	// HTTP and its bundles fired by the monitor, so like both it rides
	// the -http flag: without one it is not built, and the server is
	// handed a nil wire.Options.Diag.
	var rec *diag.Recorder
	if *httpAddr != "" {
		rec = diag.NewRecorder(diag.Options{
			SpoolDir: *bundleDir,
			Registry: telemetry.Default,
			Journal:  journal,
			Logs:     ring,
		})
	}

	// The SLO monitor and the telemetry history it reads only make sense
	// with somewhere to serve them, so they ride the -http flag. The
	// history keeps multi-resolution rings over the whole registry and
	// feeds /debug/history, `streamkf graph`, and the excerpts embedded
	// in incident bundles; the monitor's windows are its 60-tick tier,
	// fast span 1m / slow span 15m at the 1s default (Google-SRE
	// multi-window burn rates).
	var mon *health.Monitor
	var hist *history.Store
	if *httpAddr != "" && *historyInterval > 0 {
		hist, err = history.NewStore(history.Config{
			Registry: telemetry.Default,
			Detector: history.NewDetector(history.DetectorConfig{Registry: telemetry.Default}),
		})
		if err != nil {
			return fmt.Errorf("history store: %w", err)
		}
		mon = health.NewMonitor(health.Config{
			WindowTicks:  60, // one window per minute at the 1s default
			Windows:      64,
			FastWindows:  1,
			SlowWindows:  15,
			ResolveAfter: 2,
			Registry:     telemetry.Default,
			Logger:       logger.With("component", "health"),
			OnTransition: rec.OnTransition,
		})
	}
	opts := wire.Options{
		Logger:       logger,
		Metrics:      telemetry.Default,
		Trace:        journal,
		StaleAfter:   *staleAfter,
		Health:       mon,
		Diag:         rec,
		History:      hist,
		HistoryEvery: *historyInterval,
	}
	var srv *wire.Server
	if *walDir != "" {
		// Recovery runs inside the constructor: by the time we have a
		// server to serve with, every durable stream is already restored.
		srv, err = wire.NewDurableServer(opts, wire.Durability{
			Dir:             *walDir,
			FlushEvery:      *walFlush,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			return fmt.Errorf("wal open in %s: %w", *walDir, err)
		}
		st := srv.RecoveryStats()
		logger.Info("wal recovered", "dir", *walDir,
			"checkpoint_streams", st.CheckpointStreams,
			"records_replayed", st.RecordsReplayed,
			"segments_scanned", st.SegmentsScanned)
	} else {
		srv = wire.NewServerWith(opts)
	}
	// Close stops the server's one clock — the goroutine that runs the
	// watchdog scan, the WAL sync and checkpoint cadences, and the history
	// and monitor ticks — with a final sync so a graceful shutdown loses
	// nothing.
	defer srv.Close()
	logger.Info("listening", "addr", l.Addr().String(), "trace", *traceOn,
		"stale-after", staleAfter.String(), "health", mon != nil)

	if *httpAddr != "" {
		hs := &http.Server{Addr: *httpAddr, Handler: httpMux(srv, mon, rec, hist, logger)}
		defer hs.Close()
		go func() {
			logger.Info("http listening", "addr", *httpAddr)
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("http serve failed", "addr", *httpAddr, "err", err)
			}
		}()
	}

	if listening != nil {
		listening(l)
	}
	if err := srv.Serve(l); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// httpMux exposes the registry at /metrics (Prometheus text) and
// /debug/vars (JSON), the lifecycle journal and precision audit at
// /debug/trace, the Go runtime profiles at /debug/pprof/, and — when
// the SLO monitor is running — /healthz, /readyz, and /debug/health.
// Exposition failures mid-write are connection errors, not server
// state; they are logged and the connection dropped.
func httpMux(srv *wire.Server, mon *health.Monitor, rec *diag.Recorder, hist *history.Store, logger *slog.Logger) http.Handler {
	reg := srv.Registry()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			logger.Warn("metrics write failed", "remote", r.RemoteAddr, "err", err)
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := reg.WriteVars(w); err != nil {
			logger.Warn("vars write failed", "remote", r.RemoteAddr, "err", err)
		}
	})
	mux.Handle("/debug/trace", trace.Handler(srv.Trace(), srv.Auditor()))
	mux.Handle("/debug/latency", freshness.Handler(srv.Freshness(), srv.ConnSkews))
	if mon != nil {
		mux.Handle("/healthz", health.LivenessHandler())
		mux.Handle("/readyz", health.ReadyHandler(mon))
		mux.Handle("/debug/health", health.Handler(mon, srv.HealthStreams))
	}
	if rec != nil {
		mux.Handle("/debug/bundle", diag.BundleHandler(rec))
		mux.Handle("/debug/top", diag.TopHandler(rec))
	}
	if hist != nil {
		mux.Handle("/debug/history", history.Handler(hist))
	}
	mux.Handle("/debug/pprof/delta", diag.DeltaHandler())
	// net/http/pprof only self-registers on http.DefaultServeMux; mount
	// its handlers on ours explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
