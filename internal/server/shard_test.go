package server

import (
	"fmt"
	"sync"
	"testing"

	"kalmanstream/internal/netsim"
)

// TestShardDistribution registers many streams and checks the fnv-1a
// routing actually spreads them: every shard populated, and no shard
// hoarding more than a few times its fair share.
func TestShardDistribution(t *testing.T) {
	s := New()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Register(fmt.Sprintf("s%04d", i), staticSpec(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.shards) != DefaultShards {
		t.Fatalf("%d shards, want %d", len(s.shards), DefaultShards)
	}
	var sizes []int
	for _, sh := range s.shards {
		sizes = append(sizes, int(sh.size.Load()))
	}
	fair := n / len(sizes)
	total := 0
	for i, sz := range sizes {
		total += sz
		if sz == 0 {
			t.Errorf("shard %d is empty: hash is not spreading streams", i)
		}
		if sz > 3*fair {
			t.Errorf("shard %d holds %d streams (fair share %d): distribution badly skewed", i, sz, fair)
		}
	}
	if total != n {
		t.Fatalf("shard sizes sum to %d, want %d", total, n)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// TestConcurrentRegisterApplyQuery hammers the sharded registry from many
// goroutines — registration, rolls, ingest, and queries on disjoint
// streams — and must pass under -race.
func TestConcurrentRegisterApplyQuery(t *testing.T) {
	s := New()
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("g%d-s%d", g, i)
				if err := s.Register(id, staticSpec(), 1); err != nil {
					t.Error(err)
					return
				}
				if err := s.Roll(id, 0); err != nil {
					t.Error(err)
					return
				}
				_, _, err := s.Ingest(&netsim.Message{
					Kind: netsim.KindCorrection, StreamID: id, Tick: 0, Value: []float64{float64(i)},
				}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.QueryAt(id, 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Info(id, -1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Concurrent cross-shard readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = s.StreamIDs()
			_ = s.Len()
			for _, sh := range s.shards {
				_ = sh.size.Load()
			}
		}
	}()
	wg.Wait()
	if got := s.Len(); got != goroutines*perG {
		t.Fatalf("Len = %d, want %d", got, goroutines*perG)
	}
}
