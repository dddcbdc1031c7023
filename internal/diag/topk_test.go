package diag

import (
	"fmt"
	"sync"
	"testing"
)

// Exact-recovery property: while distinct IDs ≤ k the sketch is a
// plain counter table — every count exact, every error bound zero.
func TestTopKExactWhenDistinctAtMostK(t *testing.T) {
	tk := NewTopK(8)
	truth := map[string]int64{}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("s%d", i)
		for j := 0; j <= i; j++ {
			tk.Observe(id, int64(j+1))
			truth[id] += int64(j + 1)
		}
	}
	if tk.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tk.Len())
	}
	for id, want := range truth {
		got, ok := tk.Count(id)
		if !ok || got != want {
			t.Errorf("Count(%s) = %d,%v, want %d,true", id, got, ok, want)
		}
	}
	for _, it := range tk.Top(0) {
		if it.Err != 0 {
			t.Errorf("item %s has error bound %d with no evictions, want 0", it.ID, it.Err)
		}
	}
	// Top order: count descending.
	rows := tk.Top(3)
	if len(rows) != 3 || rows[0].ID != "s7" || rows[1].ID != "s6" || rows[2].ID != "s5" {
		t.Errorf("Top(3) = %+v, want s7,s6,s5", rows)
	}
}

// Deterministic eviction: among minimum-count entries the NEWEST
// (largest insertion sequence) is evicted first, so long-lived
// residents survive churn. The rule is pinned by constructing an
// explicit tie and watching who goes.
func TestTopKDeterministicEviction(t *testing.T) {
	tk := NewTopK(3)
	tk.Observe("old", 1) // seq 1
	tk.Observe("mid", 1) // seq 2
	tk.Observe("new", 1) // seq 3
	tk.Observe("x", 1)   // full table, all counts tied at 1 → evict "new"
	if _, ok := tk.Count("new"); ok {
		t.Fatal("newest tied entry survived; eviction order is not newest-first")
	}
	for _, id := range []string{"old", "mid", "x"} {
		if _, ok := tk.Count(id); !ok {
			t.Fatalf("%s missing after eviction", id)
		}
	}
	// Space-saving inheritance: x took min+1 = 2 with error bound 1.
	if c, _ := tk.Count("x"); c != 2 {
		t.Errorf("evicting insert count = %d, want min+w = 2", c)
	}
	var found bool
	for _, it := range tk.Top(0) {
		if it.ID == "x" {
			found = true
			if it.Err != 1 {
				t.Errorf("x error bound = %d, want 1 (inherited min)", it.Err)
			}
		}
	}
	if !found {
		t.Fatal("x not present in Top")
	}

	// Replay must evict identically: same operations, same survivors.
	a, b := NewTopK(4), NewTopK(4)
	ops := []string{"a", "b", "c", "d", "e", "b", "f", "a", "g", "h", "b", "i"}
	for _, id := range ops {
		a.Observe(id, 1)
		b.Observe(id, 1)
	}
	ta, tb := a.Top(0), b.Top(0)
	if len(ta) != len(tb) {
		t.Fatalf("replay diverged: %d vs %d entries", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Errorf("replay row %d diverged: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

// A heavy hitter far above the noise floor is guaranteed resident no
// matter how many distinct light IDs churn the table.
func TestTopKHeavyHitterSurvivesChurn(t *testing.T) {
	tk := NewTopK(16)
	for i := 0; i < 2000; i++ {
		tk.Observe("whale", 1)
		tk.Observe(fmt.Sprintf("minnow-%d", i), 1)
	}
	c, ok := tk.Count("whale")
	if !ok {
		t.Fatal("heavy hitter evicted")
	}
	if c < 2000 {
		t.Errorf("whale count %d under-estimates true 2000 (space-saving never undercounts residents)", c)
	}
	if top := tk.Top(1); top[0].ID != "whale" {
		t.Errorf("Top(1) = %+v, want whale first", top)
	}
}

// -race hammer: concurrent TryObserve/Observe against snapshot readers.
func TestTopKConcurrentHammer(t *testing.T) {
	tk := NewTopK(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				tk.TryObserve(fmt.Sprintf("s%d", (w*31+i)%100), 1)
				if i%16 == 0 {
					tk.Observe("anchor", 1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			tk.Top(5)
			tk.Len()
			tk.Count("anchor")
		}
	}()
	wg.Wait()
	// Blocking Observe never drops, and a space-saving resident never
	// undercounts — so the anchor ends at or above its true count (it
	// could exceed it only if churn ever evicted and re-admitted it).
	want := int64(4 * ((5000 + 15) / 16)) // 4 workers × ⌈5000/16⌉ anchor observes
	if c, ok := tk.Count("anchor"); !ok || c < want {
		t.Errorf("anchor count = %d,%v, want >= %d", c, ok, want)
	}
}

// The resident-ID hot path allocates nothing: TryObserve on a warm key
// is a map hit plus a heap sift.
func TestTopKObserveZeroAlloc(t *testing.T) {
	tk := NewTopK(8)
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		tk.Observe(id, 1)
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		tk.TryObserve(ids[i%len(ids)], 1)
		i++
	})
	if avg != 0 {
		t.Errorf("warm TryObserve allocates %.2f per op, want 0", avg)
	}
}

func BenchmarkTopKObserve(b *testing.B) {
	tk := NewTopK(128)
	ids := make([]string, 128)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%03d", i)
		tk.Observe(ids[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.TryObserve(ids[i&127], 1)
	}
}
