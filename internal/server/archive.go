// The per-stream answer archive (EnableHistory, HistoryAt): the data
// trajectory, beside the metrics trajectory of internal/history's store.

package server

import "fmt"

// HistoryEntry is one archived answer: what the server would have said at
// a past tick, with the bound that held then.
type HistoryEntry struct {
	Tick     int64
	Estimate []float64
	Bound    float64
}

// history is a fixed-capacity ring of the most recent answers.
type history struct {
	entries []HistoryEntry
	next    int
	filled  bool
}

func (h *history) add(e HistoryEntry) {
	h.entries[h.next] = e
	h.next = (h.next + 1) % len(h.entries)
	if h.next == 0 {
		h.filled = true
	}
}

func (h *history) len() int {
	if h.filled {
		return len(h.entries)
	}
	return h.next
}

// oldest returns the earliest retained tick, or -1 when empty.
func (h *history) oldest() int64 {
	if h.len() == 0 {
		return -1
	}
	if h.filled {
		return h.entries[h.next].Tick
	}
	return h.entries[0].Tick
}

// at returns the entry for an exact tick.
func (h *history) at(tick int64) (HistoryEntry, bool) {
	n := h.len()
	if n == 0 {
		return HistoryEntry{}, false
	}
	// Entries are appended once per tick, so the ring is dense in tick
	// order: index arithmetic finds the slot directly.
	old := h.oldest()
	if tick < old || tick >= old+int64(n) {
		return HistoryEntry{}, false
	}
	start := 0
	if h.filled {
		start = h.next
	}
	idx := (start + int(tick-old)) % len(h.entries)
	return h.entries[idx], true
}

// EnableHistory starts archiving the stream's per-tick answers in a ring
// of the given capacity. Each entry is recorded when the *next* tick
// begins, i.e. after all of a tick's corrections have settled, so history
// reflects exactly what a client querying at that tick would have seen.
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
	st.history = &history{entries: make([]HistoryEntry, capacity)}
	return nil
}

// archive records the settled answer for the tick that is about to end.
// Called at the start of a time step, before the replica advances.
func (st *streamState) archive() {
	if st.history == nil || st.tick == 0 {
		return
	}
	est, bound := st.answer(nil)
	st.history.add(HistoryEntry{Tick: st.tick - 1, Estimate: est, Bound: bound})
}

// HistoryAt returns the archived answer for a stream at an exact past
// tick. Fails when history is disabled, the tick has been evicted, or it
// has not settled yet.
func (s *Server) HistoryAt(id string, tick int64) (HistoryEntry, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return HistoryEntry{}, err
	}
	defer sh.mu.Unlock()
	if st.history == nil {
		return HistoryEntry{}, fmt.Errorf("server: %w for %q", ErrHistoryDisabled, id)
	}
	e, ok := st.history.at(tick)
	if !ok {
		return HistoryEntry{}, fmt.Errorf("server: %w: tick %d of %q (retained: %d..%d)",
			ErrHistoryMiss, tick, id, st.history.oldest(), st.history.oldest()+int64(st.history.len())-1)
	}
	return e, nil
}

// HistoryRange returns archived answers for ticks in [from, to]
// inclusive, in tick order. Every requested tick must be retained.
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
