package resource

import (
	"fmt"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
	"kalmanstream/internal/source"
	"kalmanstream/internal/telemetry"
)

// ManagedOptions configures one stream under budget management.
type ManagedOptions struct {
	// Weight expresses the stream's importance (default 1).
	Weight float64
	// MinDelta and MaxDelta clamp allocations (0 = unclamped).
	MinDelta, MaxDelta float64
}

type managed struct {
	src      *source.Source
	opts     ManagedOptions
	lastSent int64
	cost     float64
}

// Coordinator periodically gathers per-stream traffic statistics, invokes
// an Allocator, and pushes the resulting δ changes to both endpoints.
// Delta updates are themselves messages (server → source); the coordinator
// sends them through the provided downlink so their cost is accounted.
type Coordinator struct {
	alloc         Allocator
	termStats     TermStats // non-nil when alloc reports cache stats
	srv           *server.Server
	budgetPerTick float64
	period        int64
	downlink      func(*netsim.Message)
	streams       []*managed
	tick          int64
	rounds        int64

	// Scratch buffers reused across reallocation rounds so a steady-state
	// round performs zero heap allocations (asserted by AllocsPerRun in
	// the package tests).
	winScratch   []StreamWindow
	deltaScratch []float64
	// Last reported TermStats totals, for computing per-round deltas.
	lastRecomputed int64
	lastReused     int64

	telRounds       *telemetry.Counter
	telDeltaUpdates *telemetry.Counter
	telUtilization  *telemetry.Gauge
	telBudget       *telemetry.Gauge
	telRecomputed   *telemetry.Counter
	telReused       *telemetry.Counter
}

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// BudgetPerTick is the total correction budget across all managed
	// streams, in messages per tick.
	BudgetPerTick float64
	// Period is the reallocation interval in ticks (default 200).
	Period int64
	// Downlink transmits delta-update messages to sources; nil means
	// apply silently (still correct, but the reverse-path traffic goes
	// unaccounted).
	Downlink func(*netsim.Message)
	// Telemetry receives reallocation counters and the budget-utilization
	// gauge; nil means telemetry.Default.
	Telemetry *telemetry.Registry
}

// costSmoothing is the EMA factor for per-stream cost estimates.
const costSmoothing = 0.4

// NewCoordinator returns a coordinator using alloc over srv.
func NewCoordinator(alloc Allocator, srv *server.Server, cfg CoordinatorConfig) (*Coordinator, error) {
	if alloc == nil {
		return nil, fmt.Errorf("resource: nil allocator")
	}
	if srv == nil {
		return nil, fmt.Errorf("resource: nil server")
	}
	if cfg.BudgetPerTick <= 0 {
		return nil, fmt.Errorf("resource: budget %g must be positive", cfg.BudgetPerTick)
	}
	if cfg.Period <= 0 {
		cfg.Period = 200
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	c := &Coordinator{
		alloc:           alloc,
		srv:             srv,
		budgetPerTick:   cfg.BudgetPerTick,
		period:          cfg.Period,
		downlink:        cfg.Downlink,
		telRounds:       reg.Counter("coordinator_reallocations_total"),
		telDeltaUpdates: reg.Counter("coordinator_delta_updates_total"),
		telUtilization:  reg.Gauge("coordinator_budget_utilization"),
		telBudget:       reg.Gauge("coordinator_budget_per_tick"),
		telRecomputed:   reg.Counter("coordinator_terms_recomputed_total"),
		telReused:       reg.Counter("coordinator_terms_reused_total"),
	}
	if ts, ok := alloc.(TermStats); ok {
		c.termStats = ts
	}
	c.telBudget.Set(cfg.BudgetPerTick)
	return c, nil
}

// Manage places a source under budget management. The stream must already
// be registered at the server.
func (c *Coordinator) Manage(src *source.Source, opts ManagedOptions) error {
	if src == nil {
		return fmt.Errorf("resource: nil source")
	}
	if _, err := c.srv.Delta(src.StreamID()); err != nil {
		return fmt.Errorf("resource: %s not registered at server: %w", src.StreamID(), err)
	}
	if opts.Weight == 0 {
		opts.Weight = 1
	}
	if opts.Weight < 0 {
		return fmt.Errorf("resource: negative weight for %s", src.StreamID())
	}
	c.streams = append(c.streams, &managed{src: src, opts: opts, lastSent: src.Stats().Sent})
	return nil
}

// Rounds returns the number of reallocations performed.
func (c *Coordinator) Rounds() int64 { return c.rounds }

// Tick advances the coordinator's clock; on period boundaries it
// reallocates. Call once per global tick, after sources observed.
func (c *Coordinator) Tick() error {
	c.tick++
	if c.tick%c.period != 0 || len(c.streams) == 0 {
		return nil
	}
	return c.reallocate()
}

func (c *Coordinator) reallocate() error {
	// The window and delta buffers are scratch reused round to round —
	// growing only when streams were added — so steady state allocates
	// nothing.
	if cap(c.winScratch) < len(c.streams) {
		c.winScratch = make([]StreamWindow, len(c.streams))
		c.deltaScratch = make([]float64, len(c.streams))
	}
	windows := c.winScratch[:len(c.streams)]
	var windowMsgs int64
	for i, m := range c.streams {
		sent := m.src.Stats().Sent
		w := StreamWindow{
			ID:       m.src.StreamID(),
			Delta:    m.src.Delta(),
			Msgs:     sent - m.lastSent,
			Ticks:    c.period,
			Weight:   m.opts.Weight,
			MinDelta: m.opts.MinDelta,
			MaxDelta: m.opts.MaxDelta,
		}
		m.lastSent = sent
		m.cost = EstimateCost(m.cost, w, costSmoothing)
		w.CostEstimate = m.cost
		windows[i] = w
		windowMsgs += w.Msgs
	}
	// Utilization of the window that just closed: observed messages per
	// tick over the budgeted rate.
	c.telUtilization.Set(float64(windowMsgs) / (c.budgetPerTick * float64(c.period)))
	deltas := c.alloc.Allocate(c.deltaScratch[:len(windows)], windows, c.budgetPerTick)
	if len(deltas) != len(windows) {
		return fmt.Errorf("resource: allocator %s returned %d deltas for %d streams",
			c.alloc.Name(), len(deltas), len(windows))
	}
	for i, m := range c.streams {
		newDelta := deltas[i]
		if newDelta <= 0 || newDelta == m.src.Delta() {
			continue
		}
		if err := m.src.SetDelta(newDelta); err != nil {
			return err
		}
		// As of the coordinator's tick, so the ticks the record had not
		// reached yet archive under the δ they were served with.
		if err := c.srv.SetDelta(m.src.StreamID(), newDelta, c.tick-1); err != nil {
			return err
		}
		c.telDeltaUpdates.Inc()
		if c.downlink != nil {
			// Pooled like every other protocol message: the receiver owns
			// the delivered message and may recycle it.
			msg := netsim.GetMessage()
			msg.Kind = netsim.KindDeltaUpdate
			msg.StreamID = m.src.StreamID()
			msg.Tick = c.tick
			msg.Value = append(msg.Value[:0], newDelta)
			c.downlink(msg)
		}
	}
	if c.termStats != nil {
		recomputed, reused := c.termStats.TermStats()
		c.telRecomputed.Add(recomputed - c.lastRecomputed)
		c.telReused.Add(reused - c.lastReused)
		c.lastRecomputed, c.lastReused = recomputed, reused
	}
	c.rounds++
	c.telRounds.Inc()
	return nil
}

// Deltas returns the current δ of every managed stream, in management
// order.
func (c *Coordinator) Deltas() []float64 {
	out := make([]float64, len(c.streams))
	for i, m := range c.streams {
		out[i] = m.src.Delta()
	}
	return out
}
