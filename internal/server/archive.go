// The per-stream answer archive (EnableHistory, HistoryAt): the data
// trajectory, beside the metrics trajectory of internal/history's store.

package server

import (
	"fmt"
	"slices"

	"kalmanstream/internal/predictor"
)

// HistoryEntry is one archived answer: what the server would have said at
// a past tick, with the bound that held then.
type HistoryEntry struct {
	Tick     int64
	Estimate []float64
	Bound    float64
}

// history answers a window of settled ticks — the last capacity before
// the reader's tick, none before the enable — from marks: the record as it
// stood wherever its answer stopped being a prediction from the previous
// mark, oldest first, at most one a tick.
type history struct {
	capacity int64
	first    int64
	marks    []mark
}

// mark is the record as it stood at the end of tick: a clone of its
// replica, which nothing writes after the mark is taken, its δ, and the
// shipped measurement when tick's answer is that measurement.
type mark struct {
	tick    int64
	replica predictor.Predictor
	value   []float64
	delta   float64
}

// window returns the retained ticks [lo, hi] as of tick at (none when
// hi < lo): a tick settles once the clock moves past it, after all of that
// tick's corrections.
func (h *history) window(at int64) (lo, hi int64) {
	hi = at - 1
	return max(h.first, hi-h.capacity+1), hi
}

// asOf is the tick an archive reader at tick at sees the record at: at,
// or the record's own tick when at is behind it (-1 on the wall clock).
func (st *streamState) asOf(at int64) int64 { return max(at, st.tick-1) }

// EnableHistory starts archiving the stream's answers for the last
// capacity settled ticks from tick at on, the reader's (see asOf), so
// history reflects exactly what a client querying at each of them would
// have seen. The archive is a reader: it takes a mark here, on every
// applied correction or resync and on every δ change, and steps no record.
func (s *Server) EnableHistory(id string, capacity int, at int64) error {
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if capacity <= 0 {
		return fmt.Errorf("server: history capacity %d must be positive", capacity)
	}
	if st.history != nil {
		return fmt.Errorf("server: history already enabled for %q", id)
	}
	at = st.asOf(at)
	st.history = &history{capacity: int64(capacity), first: max(at, 0)}
	st.mark(at)
	return nil
}

// mark notes the record as of the end of tick at, at or past its own,
// under the shard lock, when it keeps an archive: a clone of its replica,
// stepped on to at when the record has not reached it — the record itself
// never moves. A mark replaces one on the same tick — a tick is archived
// as it settled — and drops the marks no retained tick still reads.
func (st *streamState) mark(at int64) {
	h := st.history
	if h == nil {
		return
	}
	m := mark{tick: at, replica: st.replica.Clone(), delta: st.delta}
	if ahead := at + 1 - st.tick; ahead > 0 {
		m.replica.StepN(ahead)
	} else if st.lastValueTick == st.tick && st.lastValue != nil {
		m.value = slices.Clone(st.lastValue)
	}
	for lo, _ := h.window(at); len(h.marks) > 1 && h.marks[1].tick <= lo; {
		h.marks = h.marks[1:] // the next mark, at or before lo, answers every retained tick
	}
	if n := len(h.marks); n > 0 && h.marks[n-1].tick == m.tick {
		h.marks = h.marks[:n-1]
	}
	h.marks = append(h.marks, m)
}

// HistoryAt returns the archived answer for a stream at an exact past
// tick: a look-ahead from the newest mark at or before it, or, on a
// correction mark's own tick, the shipped measurement with bound 0. Fails
// when history is disabled, the tick has been evicted, or it has not
// settled yet as of tick at, the reader's (see asOf).
func (s *Server) HistoryAt(id string, tick, at int64) (HistoryEntry, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return HistoryEntry{}, err
	}
	defer sh.mu.Unlock()
	h := st.history
	if h == nil {
		return HistoryEntry{}, fmt.Errorf("server: %w for %q", ErrHistoryDisabled, id)
	}
	if lo, hi := h.window(st.asOf(at)); tick < lo || tick > hi {
		if hi < lo {
			lo, hi = -1, -2
		}
		return HistoryEntry{}, fmt.Errorf("server: %w: tick %d of %q (retained: %d..%d)", ErrHistoryMiss, tick, id, lo, hi)
	}
	i := len(h.marks) - 1
	for h.marks[i].tick > tick {
		i--
	}
	m := h.marks[i]
	if tick == m.tick && m.value != nil {
		return HistoryEntry{Tick: tick, Estimate: slices.Clone(m.value)}, nil
	}
	est := m.replica.PredictInto(tick-m.tick, make([]float64, m.replica.Dim()))
	return HistoryEntry{Tick: tick, Estimate: est, Bound: m.delta}, nil
}

// HistoryRange returns archived answers for ticks in [from, to]
// inclusive, in tick order, as of tick at. Every requested tick must be
// retained. Each answer is one HistoryAt, so a range costs the sum of its
// ticks' look-aheads from their marks.
func (s *Server) HistoryRange(id string, from, to, at int64) ([]HistoryEntry, error) {
	if from > to {
		return nil, fmt.Errorf("server: history range [%d, %d] is empty", from, to)
	}
	out := make([]HistoryEntry, 0, to-from+1)
	for tick := from; tick <= to; tick++ {
		e, err := s.HistoryAt(id, tick, at)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
