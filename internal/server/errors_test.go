package server_test

import (
	"errors"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
	"kalmanstream/internal/server/servertest"
)

func TestSentinelErrorsMatchable(t *testing.T) {
	s := servertest.New()
	if _, _, err := s.Value("ghost"); !errors.Is(err, server.ErrUnknownStream) {
		t.Errorf("Value: %v not ErrUnknownStream", err)
	}
	if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "ghost"}); !errors.Is(err, server.ErrUnknownStream) {
		t.Errorf("Apply: %v not ErrUnknownStream", err)
	}
	if err := s.Register("a", static1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HistoryAt("a", 0); !errors.Is(err, server.ErrHistoryDisabled) {
		t.Errorf("HistoryAt without enable: %v not ErrHistoryDisabled", err)
	}
	if err := s.EnableHistory("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.HistoryAt("a", 0); !errors.Is(err, server.ErrHistoryMiss) {
		t.Errorf("HistoryAt unsettled tick: %v not ErrHistoryMiss", err)
	}
	// Eviction also yields ErrHistoryMiss.
	for i := int64(0); i < 6; i++ {
		s.Tick()
		if err := s.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "a", Tick: i, Value: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick()
	if _, err := s.HistoryAt("a", 0); !errors.Is(err, server.ErrHistoryMiss) {
		t.Errorf("HistoryAt evicted tick: %v not ErrHistoryMiss", err)
	}
}
