package server

import "fmt"

// HistoryLen returns the number of entries id's archive retains — a read
// the external tests make and production never does.
func (s *Server) HistoryLen(id string) (int, error) {
	sh, st, err := lock(s, id)
	if err != nil {
		return 0, err
	}
	defer sh.mu.Unlock()
	if st.history == nil {
		return 0, fmt.Errorf("server: %w for %q", ErrHistoryDisabled, id)
	}
	lo, hi := st.history.window(st.tick)
	return int(max(hi-lo+1, 0)), nil
}
