// Top-k attribution: the space-saving sketch of Metwally et al.
// ("Efficient computation of frequent and top-k elements in data
// streams", ICDT 2005). The flight recorder's question is "WHICH
// streams are burning the budget?" — at the ROADMAP's millions-of-
// streams scale a per-stream counter family is a cardinality bomb, so
// the sketch keeps exactly k counters no matter how many distinct
// stream IDs pass through. On a miss with a full table the minimum
// counter is evicted and its count inherited by the newcomer, which
// yields the classic guarantees: every true count is over-estimated by
// at most the inherited error (reported per entry), and any item with
// true frequency above count[min] is guaranteed to be in the table.
// When the number of distinct items never exceeds k the sketch is
// exact (error 0 on every entry) — the property the tests pin.
//
// The hot path is allocation-free once an ID is resident: a map hit
// plus a sift through an intrusive min-heap. Eviction reuses the
// victim's entry struct, so steady-state churn allocates only the new
// ID's map key cell. The caller-facing wrapper (Recorder.ObserveCorrection,
// the one push left, which only the benchmark makes) uses TryObserve and
// counts drops instead of stalling behind a snapshot reader; every table a
// server serves is read from its records instead.

package diag

import (
	"sort"
	"sync"
)

// entry is one tracked ID: an intrusive min-heap node ordered by
// (count, then recency) with its slot index maintained in place so
// increments can sift without searching.
type entry struct {
	id    string
	count int64
	err   int64  // over-estimate bound inherited at eviction time
	seq   uint64 // insertion sequence number; newer = larger
	idx   int    // position in TopK.heap
}

// Item is one row of a Top() snapshot.
type Item struct {
	ID    string `json:"id"`
	Count int64  `json:"count"`
	// Err bounds the over-estimate: true count ∈ [Count-Err, Count].
	// Zero whenever the sketch has never evicted.
	Err int64 `json:"err,omitempty"`
}

// TopK is a space-saving heavy-hitter sketch over string IDs with
// int64 weights. The zero value is not usable; call NewTopK. Methods
// are safe for concurrent use; TryObserve is the non-blocking variant
// hot paths use.
type TopK struct {
	mu    sync.Mutex
	k     int
	index map[string]*entry
	heap  []*entry
	seq   uint64
}

// NewTopK returns a sketch tracking at most k IDs. k < 1 panics: a
// zero-width sketch can answer nothing.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("diag: NewTopK k must be >= 1")
	}
	return &TopK{
		k:     k,
		index: make(map[string]*entry, k),
		heap:  make([]*entry, 0, k),
	}
}

// K returns the sketch width.
func (t *TopK) K() int { return t.k }

// Observe adds weight w (w <= 0 is ignored) to id, blocking on the
// sketch lock. Snapshot readers hold the lock briefly, so this is fine
// everywhere except zero-alloc hot paths — those use TryObserve.
func (t *TopK) Observe(id string, w int64) {
	if w <= 0 {
		return
	}
	t.mu.Lock()
	t.observeLocked(id, w)
	t.mu.Unlock()
}

// TryObserve is Observe that refuses to wait: if the sketch lock is
// held (a snapshot is being taken) it drops the event and returns
// false so the caller can count the drop instead of stalling.
func (t *TopK) TryObserve(id string, w int64) bool {
	if w <= 0 {
		return true
	}
	if !t.mu.TryLock() {
		return false
	}
	t.observeLocked(id, w)
	t.mu.Unlock()
	return true
}

func (t *TopK) observeLocked(id string, w int64) {
	if e := t.index[id]; e != nil {
		e.count += w
		t.siftDown(e.idx)
		return
	}
	if len(t.heap) < t.k {
		t.seq++
		e := &entry{id: id, count: w, seq: t.seq, idx: len(t.heap)}
		t.heap = append(t.heap, e)
		t.index[id] = e
		t.siftUp(e.idx)
		return
	}
	// Space-saving eviction: the root is the minimum-count entry (ties
	// broken toward the newest, so long-lived residents survive churn).
	// The newcomer inherits the victim's count as its error bound and
	// reuses the victim's struct — no allocation beyond the map cell.
	victim := t.heap[0]
	delete(t.index, victim.id)
	t.seq++
	victim.id = id
	victim.err = victim.count
	victim.count += w
	victim.seq = t.seq
	t.index[id] = victim
	t.siftDown(0)
}

// less orders the min-heap: smaller count first; among equal counts the
// NEWEST entry (largest seq) sits nearer the root and is evicted first.
// This is the deterministic eviction rule the tests pin: an entry that
// has survived longer at the same count is better evidence of a real
// heavy hitter than one that just arrived.
func (t *TopK) less(i, j int) bool {
	a, b := t.heap[i], t.heap[j]
	if a.count != b.count {
		return a.count < b.count
	}
	return a.seq > b.seq
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].idx = i
	t.heap[j].idx = j
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && t.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && t.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		t.swap(i, least)
		i = least
	}
}

// Len returns the number of resident IDs (≤ k).
func (t *TopK) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.heap)
}

// Top returns up to n items ordered by count descending; ties break by
// age (older first) then ID, so snapshots are deterministic. n <= 0
// means all resident items.
func (t *TopK) Top(n int) []Item {
	t.mu.Lock()
	rows := make([]Item, 0, len(t.heap))
	seqs := make([]uint64, 0, len(t.heap))
	for _, e := range t.heap {
		rows = append(rows, Item{ID: e.id, Count: e.count, Err: e.err})
		seqs = append(seqs, e.seq)
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		if seqs[i] != seqs[j] {
			return seqs[i] < seqs[j]
		}
		return rows[i].ID < rows[j].ID
	})
	if n > 0 && n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// Count returns id's tracked count and whether it is resident.
func (t *TopK) Count(id string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.index[id]; e != nil {
		return e.count, true
	}
	return 0, false
}

// Reset clears the sketch to empty without releasing its capacity.
func (t *TopK) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.index {
		delete(t.index, id)
	}
	t.heap = t.heap[:0]
	t.seq = 0
}
