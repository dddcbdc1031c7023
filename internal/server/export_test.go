package server

import "fmt"

// CheckpointStates is checkpointStates for the external tests.
var CheckpointStates = checkpointStates

// HistoryLen returns the number of entries id's archive retains as of
// tick at — a read the external tests make and production never does.
func (s *Server) HistoryLen(id string, at int64) (int, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return 0, err
	}
	defer sh.mu.Unlock()
	if st.history == nil {
		return 0, fmt.Errorf("server: %w for %q", ErrHistoryDisabled, id)
	}
	lo, hi := st.history.window(st.asOf(at))
	return int(max(hi-lo+1, 0)), nil
}

// stepRecord moves id's record so that ticks [0, tick] have been stepped
// (a tick behind it leaves it be), counting the ticks stepped through as
// suppressed: the eager reference the lazy paths — a read ahead, an
// ingest at a later tick, a replay — are held to. Outside tests only a
// message moves a record.
func stepRecord(s *Server, id string, tick int64) error {
	sh, st, err := lock(s, id)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if err := checkAdvance(st, tick); err != nil {
		return err
	}
	if steps := tick + 1 - st.tick; steps > 0 {
		st.stepTo(tick + 1)
		st.suppressed += steps
	}
	return nil
}
