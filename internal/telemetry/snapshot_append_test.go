package telemetry

import (
	"sort"
	"testing"
)

// TestSnapshotAppendMatchesSnapshot checks that SnapshotAppend carries
// exactly the same data as Snapshot (modulo order, which SnapshotAppend
// does not promise).
func TestSnapshotAppendMatchesSnapshot(t *testing.T) {
	r := New()
	r.Counter("c_total").Add(7)
	r.Counter("c_total", "stream", "a").Add(3)
	r.Gauge("g").Set(2.5)
	h := r.Histogram("h_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	got := r.SnapshotAppend(nil)
	sort.Slice(got, func(i, j int) bool {
		if got[i].Name != got[j].Name {
			return got[i].Name < got[j].Name
		}
		return got[i].Labels < got[j].Labels
	})
	want := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("SnapshotAppend returned %d samples, Snapshot %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Labels != w.Labels || g.Kind != w.Kind ||
			g.Value != w.Value || g.Count != w.Count || g.Sum != w.Sum {
			t.Errorf("sample %d: got %+v, want %+v", i, g, w)
		}
		if len(g.Buckets) != len(w.Buckets) {
			t.Fatalf("sample %d (%s): %d buckets, want %d", i, g.Name, len(g.Buckets), len(w.Buckets))
		}
		for j := range w.Buckets {
			if g.Buckets[j] != w.Buckets[j] {
				t.Errorf("sample %d bucket %d: got %+v, want %+v", i, j, g.Buckets[j], w.Buckets[j])
			}
		}
	}
}

// TestSnapshotAppendReusesDst checks the zero-allocation contract: once
// every series has been seen, scraping into the recycled slice performs
// no allocation — including the histogram bucket storage.
func TestSnapshotAppendReusesDst(t *testing.T) {
	r := New()
	for _, id := range []string{"a", "b", "c"} {
		r.Counter("sent_total", "stream", id).Inc()
	}
	r.Gauge("stale").Set(1)
	h := r.Histogram("lat_seconds", []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	h.Observe(0.35)

	var scratch []Sample
	scratch = r.SnapshotAppend(scratch[:0]) // warm-up sizes the slice
	scratch = r.SnapshotAppend(scratch[:0])
	allocs := testing.AllocsPerRun(100, func() {
		scratch = r.SnapshotAppend(scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("SnapshotAppend steady state allocates %.1f/op, want 0", allocs)
	}
	if len(scratch) != 5 {
		t.Fatalf("scraped %d samples, want 5", len(scratch))
	}
}
