// Durable wire server: the glue between the connection layer and the
// write-ahead log. NewDurableServer recovers the directory before the
// server can accept a single frame, installs the hooks that log every
// registration and applied message, and runs the flusher/checkpointer
// loop. The ordering invariants:
//
//   - recovery (server.Recover) runs before the hooks are installed, so
//     replaying a logged registration or message can never re-append it;
//   - both hooks fire under the stream's shard lock, so for every stream
//     log order is apply order and its register record precedes its
//     messages — no outer lock is needed, and records of different
//     streams commute;
//   - a checkpoint takes its cut with every shard locked (no apply or
//     registration in flight: the captured sequence and states agree) but
//     is written outside the locks, so a slow fsync never stalls the
//     data path.
package wire

import (
	"fmt"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/wal"
)

// DefaultFlushEvery is the group-commit fsync cadence when
// Durability.FlushEvery is zero: short enough that a crash loses a
// barely-visible sliver of traffic, long enough to amortize the fsync
// over many corrections.
const DefaultFlushEvery = 100 * time.Millisecond

// Durability configures the write-ahead log for NewDurableServer.
type Durability struct {
	// Dir is the log directory. Required.
	Dir string
	// CheckpointEvery writes a full predictor-snapshot checkpoint (and
	// prunes covered segments) on this cadence. Zero disables periodic
	// checkpoints; Checkpoint can still be called explicitly.
	CheckpointEvery time.Duration
	// FlushEvery is the group-commit fsync cadence (0 =
	// DefaultFlushEvery). A crash loses at most this much traffic, which
	// the protocol absorbs: reconnecting sources force a full resync and
	// the monotonic-tick guard drops re-sent duplicates.
	FlushEvery time.Duration
}

// NewDurableServer opens (or recovers) the log directory in d.Dir,
// replays it into a fresh server, and only then wires up logging and
// starts the flusher/checkpointer. Call Close on shutdown.
func NewDurableServer(opts Options, d Durability) (*Server, error) {
	if d.Dir == "" {
		return nil, fmt.Errorf("wire: durability needs a directory")
	}
	s, err := newServer(opts)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Options{Dir: d.Dir, Registry: s.reg, Logger: opts.Logger})
	if err != nil {
		return nil, err
	}
	// Owner nil, heard = now: see server.Recover.
	stats, err := s.srv.Recover(log, s.clock())
	if err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("wire: recovering %s: %w", d.Dir, err)
	}
	s.lastRecovery = stats
	s.wal = log
	// Buffer-only appends under the shard lock; the loop below makes them
	// durable. A registration is durable state like any correction:
	// without it the replayed messages that follow have no stream to land
	// on, so a failed append refuses the registration. A failed message
	// append is an encode bug, not an I/O failure.
	s.srv.SetRegisterHook(func(id string, spec predictor.Spec, delta float64) error {
		return log.AppendRegister(wal.RegisterRecord{ID: id, Spec: spec, Delta: delta})
	})
	s.srv.SetApplyHook(func(tick int64, m *netsim.Message) {
		if err := log.AppendMessage(tick, m); err != nil {
			s.logw("wire: wal append failed", "stream", m.StreamID, "err", err)
		}
	})
	flush := d.FlushEvery
	if flush <= 0 {
		flush = DefaultFlushEvery
	}
	s.walStop = make(chan struct{})
	s.walDone = make(chan struct{})
	go s.durabilityLoop(flush, d.CheckpointEvery)
	return s, nil
}

// RecoveryStats reports what the constructor's recovery pass restored
// and replayed (zero value when the directory was empty or the server
// is not durable).
func (s *Server) RecoveryStats() wal.RecoveryStats { return s.lastRecovery }

// WAL returns the server's write-ahead log (nil when not durable).
func (s *Server) WAL() *wal.Log { return s.wal }

// Checkpoint captures every stream's state at one instant (see
// server.Checkpoint) and writes it durably, pruning the log prefix it
// covers.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("wire: server has no write-ahead log")
	}
	return s.wal.WriteCheckpoint(s.srv.Checkpoint(s.wal))
}

// durabilityLoop is the group-commit flusher and periodic checkpointer.
func (s *Server) durabilityLoop(flush, ckpt time.Duration) {
	defer close(s.walDone)
	ft := time.NewTicker(flush)
	defer ft.Stop()
	var ckptC <-chan time.Time
	if ckpt > 0 {
		ct := time.NewTicker(ckpt)
		defer ct.Stop()
		ckptC = ct.C
	}
	for {
		select {
		case <-s.walStop:
			return
		case <-ft.C:
			if err := s.wal.Sync(); err != nil {
				s.logw("wire: wal sync failed", "err", err)
			}
		case <-ckptC:
			if err := s.Checkpoint(); err != nil {
				s.logw("wire: checkpoint failed", "err", err)
			}
		}
	}
}

// Close shuts the server's background machinery down: the staleness
// watchdog, then the durability loop, then a final sync-and-close of
// the log so everything applied so far survives the restart. Safe on a
// non-durable server (watchdog-only shutdown) and safe to call twice.
func (s *Server) Close() error {
	s.StopWatchdog()
	if s.wal == nil {
		return nil
	}
	var err error
	s.walClose.Do(func() {
		close(s.walStop)
		<-s.walDone
		err = s.wal.Close()
	})
	return err
}
