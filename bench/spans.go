package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed client call, recorded by the load generator around
// its own calls into the wire client (spans inside kfserver are a later
// change). Parent is the ID of the enclosing span on the same connection
// (0 = root): a `tick` span parents that tick's `send` and `flush`.
type span struct {
	Name   string `json:"name"`
	Conn   int    `json:"conn"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the timed phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog collects one connection's spans in memory; they are written
// out only after the run, so recording costs an append. Each connection
// goroutine owns its log; on is shared and flipped by the coordinator
// when the traced half of a run begins.
type spanLog struct {
	conn  int
	on    *atomic.Bool
	epoch time.Time
	spans []span
}

// begin opens a span and returns its ID, or 0 when recording is off.
func (l *spanLog) begin(name string, parent int) int {
	if !l.on.Load() {
		return 0
	}
	l.spans = append(l.spans, span{
		Name: name, Conn: l.conn, ID: len(l.spans) + 1, Parent: parent,
		Start: int64(time.Since(l.epoch)),
	})
	return len(l.spans)
}

// end closes the span begin returned (no-op for ID 0).
func (l *spanLog) end(id int) {
	if id > 0 {
		l.spans[id-1].End = int64(time.Since(l.epoch))
	}
}

// writeSpans writes every log's spans to path as JSON lines.
func writeSpans(path string, logs []*spanLog) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}
