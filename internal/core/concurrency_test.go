package core

import (
	"fmt"
	"sync"
	"testing"

	"kalmanstream/internal/stream"
)

// TestConcurrentObserveQuerySubscribe drives a System the way the
// concurrency contract allows: Advance from one goroutine as the tick
// barrier, then Observe on every stream, bounded-error queries, and
// subscription churn all concurrently within the tick. Run under -race
// (make check does) this validates the lock-striped server, the atomic
// link counters, and the synchronized subscription set.
func TestConcurrentObserveQuerySubscribe(t *testing.T) {
	const (
		nStreams = 12
		ticks    = 120
	)
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*StreamHandle, nStreams)
	gens := make([]stream.Stream, nStreams)
	ids := make([]string, nStreams)
	for i := range handles {
		ids[i] = fmt.Sprintf("s%02d", i)
		h, err := sys.Attach(StreamConfig{
			ID:        ids[i],
			Predictor: KalmanConstantVelocity(0.05, 0.1),
			Delta:     0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		gens[i] = stream.NewRandomWalk(int64(i+1), 0, 0.5, 0.05, ticks+1)
	}

	var fired sync.Map // subscription events may fire from Advance; count them
	for tick := 0; tick < ticks; tick++ {
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		// One observer goroutine per stream (a stream is owned by one
		// goroutine; different streams are independent).
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *StreamHandle) {
				defer wg.Done()
				p, ok := gens[i].Next()
				if !ok {
					t.Error("stream exhausted")
					return
				}
				if _, err := h.Observe(p.Value); err != nil {
					t.Error(err)
				}
			}(i, h)
		}
		// Concurrent query clients.
		for q := 0; q < 3; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				if _, err := sys.Value(ids[q]); err != nil {
					t.Error(err)
				}
				if _, err := sys.Sum(ids); err != nil {
					t.Error(err)
				}
				if _, err := sys.Average(ids); err != nil {
					t.Error(err)
				}
			}(q)
		}
		// Subscription churn while streams observe.
		if tick%20 == 0 {
			wg.Add(1)
			go func(tick int) {
				defer wg.Done()
				id, err := sys.Subscribe(ids[tick%nStreams], -1e9, 1e9, func(ev Event) {
					fired.Store(ev.SubID, true)
				})
				if err != nil {
					t.Error(err)
				}
				_ = id
			}(tick)
		}
		wg.Wait()
	}
	n := 0
	fired.Range(func(_, _ any) bool { n++; return true })
	if n == 0 {
		t.Error("no subscription ever fired")
	}
	if sys.TotalMessages() == 0 {
		t.Error("no corrections crossed any link")
	}
}
