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

// history answers a window of settled ticks — the last capacity the
// record has moved past, none before the enable — from marks: the record
// as it stood wherever its answer stopped being a prediction from the
// previous mark, oldest first, at most one a tick.
type history struct {
	capacity int64
	first    int64
	marks    []mark
}

// mark is the record as it stood at the end of tick: a clone of its
// replica, which nothing writes, its δ, and the shipped measurement when
// tick's answer is that measurement.
type mark struct {
	tick    int64
	replica predictor.Predictor
	value   []float64
	delta   float64
}

// window returns the retained ticks [lo, hi] of a record whose ticks
// [0, recTick) have been stepped (none when hi < lo): a tick settles once
// the record moves past it, after all of that tick's corrections.
func (h *history) window(recTick int64) (lo, hi int64) {
	hi = recTick - 2
	return max(h.first, hi-h.capacity+1), hi
}

// EnableHistory starts archiving the stream's answers for the last
// capacity settled ticks, so history reflects exactly what a client
// querying at each of them would have seen. The archive is a reader: it
// takes a mark here, on every applied correction or resync and on every δ
// change, and steps nothing.
func (s *Server) EnableHistory(id string, capacity int) error {
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
	st.history = &history{capacity: int64(capacity), first: max(st.tick-1, 0)}
	st.mark()
	return nil
}

// mark notes the record as it stands, under the shard lock, when it keeps
// an archive. A mark replaces one on the same tick — a tick is archived as
// it settled — and drops the marks no retained tick still reads.
func (st *streamState) mark() {
	h := st.history
	if h == nil {
		return
	}
	m := mark{tick: st.tick - 1, replica: st.replica.Clone(), delta: st.delta}
	if st.lastValueTick == st.tick && st.lastValue != nil {
		m.value = slices.Clone(st.lastValue)
	}
	for lo, _ := h.window(st.tick); len(h.marks) > 1 && h.marks[1].tick <= lo; {
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
// settled yet.
func (s *Server) HistoryAt(id string, tick int64) (HistoryEntry, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return HistoryEntry{}, err
	}
	defer sh.mu.Unlock()
	h := st.history
	if h == nil {
		return HistoryEntry{}, fmt.Errorf("server: %w for %q", ErrHistoryDisabled, id)
	}
	if lo, hi := h.window(st.tick); tick < lo || tick > hi {
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
// inclusive, in tick order. Every requested tick must be retained. Each
// answer is one HistoryAt, so a range costs the sum of its ticks'
// look-aheads from their marks.
func (s *Server) HistoryRange(id string, from, to int64) ([]HistoryEntry, error) {
	if from > to {
		return nil, fmt.Errorf("server: history range [%d, %d] is empty", from, to)
	}
	out := make([]HistoryEntry, 0, to-from+1)
	for tick := from; tick <= to; tick++ {
		e, err := s.HistoryAt(id, tick)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
