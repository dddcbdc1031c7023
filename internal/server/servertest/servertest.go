// Package servertest drives a server.Server on a tick clock the way
// core.System does, for tests of the replica cache and of what reads it
// (the query engine, the budget coordinator) that need no sources, links
// or node: Tick moves the clock and runs the silence scan, Apply delivers
// a message at the current tick, and Value answers there; a history read
// Rolls to At first, which settles every tick before it.
package servertest

import (
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
)

// Clock is a server on a tick clock. Its Apply and Value shadow the
// server's own.
type Clock struct {
	*server.Server
	tick int64
}

// New returns an empty server at tick 0.
func New() *Clock { return &Clock{Server: server.New()} }

// At is the tick reads answer at — the one being observed — and the clock
// to hand query.New.
func (c *Clock) At() int64 { return c.tick - 1 }

// Tick moves the clock one tick and scans for silence there, handing each
// resync request due to the stream's owner, the func(*netsim.Message) armed
// with SetWatchdog.
func (c *Clock) Tick() {
	c.tick++
	for _, f := range c.ScanSilent(c.tick) {
		if push, ok := f.Owner.(func(*netsim.Message)); ok {
			push(&netsim.Message{Kind: netsim.KindResyncRequest, StreamID: f.ID, Tick: c.tick})
		}
	}
}

// Apply delivers m at the current tick, as core.System does: a roll to
// the tick, then the ingest, heard at the message's own tick.
func (c *Clock) Apply(m *netsim.Message) error {
	if err := c.Roll(m.StreamID, c.At()); err != nil {
		return err
	}
	_, _, err := c.Ingest(m, m.Tick+1)
	return err
}

// Value answers a point query at the current tick.
func (c *Clock) Value(id string) ([]float64, float64, error) { return c.QueryAt(id, c.At()) }
