// The protocol node: the replica cache and everything that hangs off it —
// the write-ahead log, the auditor, the freshness recorder, the flight
// recorder's cross-wiring, the telemetry history and the SLO monitor that
// reads it, the query engine, the subscriptions and the budget
// coordinator — assembled once, by NewNode. Two drivers run it, each on
// its own clock: System on the tick clock (settle, Tick once per
// Advance), wire.Server on the wall clock (Tick from its one goroutine).

package core

import (
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/query"
	"kalmanstream/internal/resource"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wal"
)

// NodeConfig configures a Node. Every field but the driver's own Clock
// and ConnSkews is a setting the driver already has: System fills them
// from SystemConfig, wire.Server from wire.Options and wire.Durability.
// Times and cadences are in the driver's unit — ticks for System,
// nanoseconds for wire — the way the server's watchdog measures silence.
type NodeConfig struct {
	Telemetry *telemetry.Registry // nil = telemetry.Default
	Trace     *trace.Journal      // nil = trace.Default
	Logger    *slog.Logger        // the log's recovery diagnostics; nil = slog.Default()
	// Clock is the wall clock of a driver whose sources run on their own
	// clocks (wire); nil is the tick driver. A node with a clock is a
	// deployed server: recovered streams count as heard at Clock(), and it
	// publishes the replica cache's per-shard totals and streams_stale
	// from birth. Without one it publishes streams_stale only for History,
	// and no totals, so experiments pay for neither.
	Clock freshness.Clock
	// ConnSkews lists the driver's per-connection clock-skew estimates for
	// the latency table the flight recorder embeds (nil = none).
	ConnSkews        func() []freshness.ConnSkew
	Audit, Freshness bool // build the precision auditor, the latency recorder
	// History is ticked every HistoryEvery (0 = by the caller), then
	// Health, which is bound to it: its windows are History's
	// WindowTicks-wide tier, so Health without History is an error.
	History      *history.Store
	HistoryEvery int64
	Health       *health.Monitor
	// Diag's tables read the stream records and the auditor's counts, and
	// its bundles embed Health, History and the latency table.
	Diag *diag.Recorder
	// WALDir, when set, is opened and recovered by NewNode, which then logs
	// every registration and applied message; the log syncs every
	// FlushEvery (0 = only at the tick driver's settle) and checkpoints
	// every CheckpointEvery (0 = never).
	WALDir                      string
	FlushEvery, CheckpointEvery int64
	// StaleAfter arms the silence scan (server.ScanSilent) every
	// StaleAfter/4, with StaleAfter as every stream's deadline.
	StaleAfter int64
	// The budget coordinator (see SystemConfig); BudgetPerTick 0 = off.
	BudgetPerTick float64
	Allocator     string
	AllocPeriod   int64
}

// Node is the protocol node. Build it with NewNode; drive it with Tick.
type Node struct {
	srv   *server.Server
	eng   *query.Engine
	subs  *query.Subscriptions
	coord *resource.Coordinator

	reg      *telemetry.Registry
	tr       *trace.Journal
	logger   *slog.Logger
	clock    freshness.Clock
	auditor  *trace.Auditor
	fresh    *freshness.Recorder
	health   *health.Monitor
	hist     *history.Store
	telStale *telemetry.Gauge // streams_stale, nil when not published
	tick     *atomic.Int64    // the tick clock, set by System

	walDir   string
	wal      *wal.Log
	recovery wal.RecoveryStats

	flush, ckpt, scan, snapshot cadence
}

// cadence is one duty's schedule on the driver's clock: due once every
// `every` (0 = never), catching up after a late call without a burst.
type cadence struct{ every, next int64 }

func (c *cadence) due(now int64) bool {
	if c.every <= 0 || now < c.next {
		return false
	}
	if c.next += c.every; c.next <= now {
		c.next = now + c.every
	}
	return true
}

var errNoWAL = errors.New("core: node has no write-ahead log")

// NewNode assembles a node. Nothing runs until the driver calls Tick, and
// a failed construction leaves nothing open.
func NewNode(cfg NodeConfig) (*Node, error) {
	n := &Node{srv: server.New(), reg: cfg.Telemetry, tr: cfg.Trace, logger: cfg.Logger,
		clock: cfg.Clock, health: cfg.Health, hist: cfg.History, walDir: cfg.WALDir}
	if n.reg == nil {
		n.reg = telemetry.Default
	}
	if n.tr == nil {
		n.tr = trace.Default
	}
	if n.clock != nil {
		n.srv.SetTelemetry(n.reg)
		n.srv.SetStaleAfter(cfg.StaleAfter)
	}
	n.srv.SetTrace(n.tr)
	if cfg.Audit {
		n.auditor = trace.NewAuditor(n.reg, n.tr)
	}
	if n.clock != nil || n.hist != nil {
		n.telStale = n.reg.Gauge("streams_stale")
		n.reg.Help("streams_stale", "streams currently silent past the watchdog deadline")
	}
	if n.health != nil {
		if err := n.health.Bind(n.hist); err != nil {
			return nil, err
		}
	}
	if cfg.Freshness {
		n.fresh = freshness.NewRecorder(n.reg)
	}
	if d := cfg.Diag; d != nil {
		d.AttachStreams(n.srv.WalkCounts)
		if n.auditor != nil {
			d.AttachAuditor(n.auditor.WalkViolations)
		}
		if n.health != nil {
			d.AttachHealth(n.health)
		}
		if n.hist != nil {
			d.AttachHistory(n.hist)
		}
		if n.fresh != nil {
			d.AttachFreshness(func() freshness.Snapshot { return n.fresh.SnapshotNow(cfg.ConnSkews) })
		}
	}
	n.eng = query.New(n.srv, n.readTick)
	n.subs = n.eng.NewSubscriptions()
	if cfg.BudgetPerTick > 0 {
		name := cfg.Allocator
		if name == "" {
			name = "water-filling"
		}
		alloc, err := resource.ByName(name)
		if err != nil {
			return nil, err
		}
		n.coord, err = resource.NewCoordinator(alloc, n.srv, resource.CoordinatorConfig{
			BudgetPerTick: cfg.BudgetPerTick,
			Period:        cfg.AllocPeriod,
		})
		if err != nil {
			return nil, err
		}
	}
	now := n.now()
	if n.hist != nil {
		n.snapshot = cadence{cfg.HistoryEvery, now + cfg.HistoryEvery}
	}
	if every := max(cfg.StaleAfter/4, 1); cfg.StaleAfter > 0 {
		n.scan = cadence{every, now + every}
	}
	if cfg.WALDir != "" {
		if err := n.openWAL(); err != nil {
			return nil, err
		}
		n.flush = cadence{cfg.FlushEvery, now + cfg.FlushEvery}
		n.ckpt = cadence{cfg.CheckpointEvery, now + cfg.CheckpointEvery}
	}
	return n, nil
}

// readTick is the tick reads answer at: the tick being observed, or -1 —
// where each replica stands — on the wall clock.
func (n *Node) readTick() int64 {
	if n.tick == nil {
		return -1
	}
	return n.tick.Load() - 1
}

// now reads the driver's clock; the tick driver recovers at 0.
func (n *Node) now() int64 {
	if n.clock == nil {
		return 0
	}
	return n.clock()
}

// openWAL opens and recovers the log directory — the newest checkpoint,
// then the records after it — and only then arms the hooks that log every
// registration and applied message, so nothing replayed is logged again.
// The appends are buffer-only and run under the stream's shard lock, so a
// stream's log order is its apply order.
func (n *Node) openWAL() error {
	log, err := wal.Open(wal.Options{Dir: n.walDir, Registry: n.reg, Logger: n.logger})
	if err != nil {
		return err
	}
	// Owner nil, heard = now: see server.Recover.
	stats, err := n.srv.Recover(log, n.now())
	if err != nil {
		_ = log.Close()
		return fmt.Errorf("core: recovering %s: %w", n.walDir, err)
	}
	n.wal, n.recovery = log, stats
	// A registration is durable state like any correction — the messages
	// logged after it have no stream to replay onto without it — so a
	// failed append refuses it. A message append fails only on an encoding
	// bug, and a log silently missing an applied record would recover a
	// different replica than the one that answered: stop.
	n.srv.SetRegisterHook(log.AppendRegister)
	n.srv.SetApplyHook(func(tick int64, m *netsim.Message) {
		if err := log.AppendMessage(tick, m); err != nil {
			panic(fmt.Sprintf("core: wal append failed: %v", err))
		}
	})
	return nil
}

// settle is the tick driver's boundary before the replicas step to tick
// t: everything applied since the last one becomes durable, then — once a
// tick has settled — subscriptions fire on tick t−1's answers and the
// budget coordinator counts its corrections.
func (n *Node) settle(t int64) error {
	if n.wal != nil {
		if err := n.wal.Sync(); err != nil {
			return err
		}
	}
	if t == 0 {
		return nil
	}
	if err := n.subs.Poll(t - 1); err != nil {
		return err
	}
	if n.coord != nil {
		return n.coord.Tick()
	}
	return nil
}

// Tick runs the duties due at now, in one fixed order: the log's group
// commit, a checkpoint, the silence scan, streams_stale, then the history
// store and the monitor that reads it. A failed duty does not skip the
// rest; the errors come back joined, with the scan's findings for the
// driver to act on — a resync request travels on a connection only the
// driver has. Call it from one goroutine.
func (n *Node) Tick(now int64) ([]server.Silent, error) {
	var err error
	if n.flush.due(now) {
		err = n.wal.Sync()
	}
	if n.ckpt.due(now) {
		err = errors.Join(err, n.Checkpoint())
	}
	var silent []server.Silent
	if n.scan.due(now) {
		silent = n.srv.ScanSilent(now)
	}
	if n.telStale != nil {
		n.telStale.Set(float64(n.srv.StaleCount()))
	}
	if n.snapshot.due(now) {
		n.hist.Tick()
		if n.health != nil {
			n.health.Tick()
		}
	}
	return silent, err
}

// Period is the cadence of the fastest armed duty — how often a wall-clock
// driver calls Tick, which keeps every duty within one such period of its
// own cadence — or 0 when no duty is armed.
func (n *Node) Period() int64 {
	var p int64
	for _, c := range [...]cadence{n.flush, n.ckpt, n.scan, n.snapshot} {
		if c.every > 0 && (p == 0 || c.every < p) {
			p = c.every
		}
	}
	return p
}

// Checkpoint captures every stream's state at one instant (see
// server.Checkpoint) and writes it durably, pruning the log prefix it
// covers.
func (n *Node) Checkpoint() error {
	if n.wal == nil {
		return errNoWAL
	}
	return n.wal.WriteCheckpoint(n.srv.Checkpoint)
}

// Close syncs and closes the log, so a graceful shutdown loses nothing.
// Stop calling Tick first. Safe without a log and safe to call twice.
func (n *Node) Close() error {
	if n.wal == nil {
		return nil
	}
	return n.wal.Close()
}

// What the node holds, for its drivers; each is nil while its setting is
// off, and RecoveryStats is zero without a log.
func (n *Node) Server() *server.Server           { return n.srv }
func (n *Node) Registry() *telemetry.Registry    { return n.reg }
func (n *Node) Trace() *trace.Journal            { return n.tr }
func (n *Node) Auditor() *trace.Auditor          { return n.auditor }
func (n *Node) Freshness() *freshness.Recorder   { return n.fresh }
func (n *Node) WAL() *wal.Log                    { return n.wal }
func (n *Node) RecoveryStats() wal.RecoveryStats { return n.recovery }
