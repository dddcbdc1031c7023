package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
	"kalmanstream/internal/wire"
)

// checker holds every answer against the paper's guarantee.
type checker struct {
	pop   *population
	truth *truthTable
	// guaranteedBefore, when set, limits the ±δ check per stream to ticks
	// before this one. The guarantee covers a tick only once every
	// correction up to it has been applied; query_flood reads past the
	// preload, so a stream is covered until the first correction its gate
	// shipped after the preload (which the server never receives).
	guaranteedBefore []uint32
	held             atomic.Int64 // answers held against a true measurement

	mu    sync.Mutex
	notes []string // first few failures, for the report
}

// check verifies one answer. The protocol promises |estimate − z| ≤ bound
// with bound ∈ {0, δ}, and an exact answer (bound 0, estimate == z) on a
// tick that carried a correction. z is the true measurement the gate saw
// at that tick, recorded when the trace was generated; needTruth says a
// missing record is itself a failure (the query was planned) rather than
// expected (a barrier at a tick chosen at run time).
func (k *checker) check(q queryRef, ans wire.AnswerPayload, needTruth bool) error {
	def := k.pop.streams[q.stream]
	if ans.ID != def.id || ans.Tick != int64(q.tick) || len(ans.Estimate) != 1 {
		return fmt.Errorf("%s@%d: answer names %s@%d with %d values", def.id, q.tick, ans.ID, ans.Tick, len(ans.Estimate))
	}
	if ans.Bound != 0 && ans.Bound != def.delta {
		return fmt.Errorf("%s@%d: bound %g is neither 0 nor δ=%g", def.id, q.tick, ans.Bound, def.delta)
	}
	if k.guaranteedBefore != nil && q.tick >= k.guaranteedBefore[q.stream] {
		return nil
	}
	z, ok := k.truth.lookup(int(q.stream), q.tick)
	if !ok {
		if needTruth {
			return fmt.Errorf("%s@%d: no true measurement on record", def.id, q.tick)
		}
		return nil
	}
	k.held.Add(1)
	est := ans.Estimate[0]
	if ans.Bound == 0 && est != z {
		return fmt.Errorf("%s@%d: exact answer %v != measurement %v", def.id, q.tick, est, z)
	}
	if !(math.Abs(est-z) <= ans.Bound) {
		return fmt.Errorf("%s@%d: |%v − %v| exceeds bound %g", def.id, q.tick, est, z, ans.Bound)
	}
	return nil
}

// note keeps the first few failure messages.
func (k *checker) note(err error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.notes) < 5 {
		k.notes = append(k.notes, err.Error())
	}
}

// referenceAnswer replays one stream's corrections serially into an
// in-process server.Server — no TCP, no batching, no second connection —
// and reads it at tick `at`. The deployed path must agree bit for bit.
func referenceAnswer(def streamDef, recs []record, at int) (est float64, bound float64, err error) {
	srv := server.New()
	if err := srv.Register(def.id, def.spec, def.delta); err != nil {
		return 0, 0, err
	}
	steps := 0
	advance := func(tick int) error {
		for ; steps < tick+1; steps++ {
			if err := srv.TickStream(def.id); err != nil {
				return err
			}
		}
		return nil
	}
	m := netsim.Message{Kind: netsim.KindCorrection, StreamID: def.id, Value: make([]float64, 1)}
	for _, rec := range recs {
		if err := advance(int(rec.tick)); err != nil {
			return 0, 0, err
		}
		m.Tick, m.Value[0] = int64(rec.tick), rec.value
		if err := srv.Apply(&m); err != nil {
			return 0, 0, err
		}
	}
	if err := advance(at); err != nil {
		return 0, 0, err
	}
	v, b, err := srv.Value(def.id)
	if err != nil {
		return 0, 0, err
	}
	return v[0], b, nil
}

// sampleStreams draws n distinct streams, the same share from every
// connection.
func sampleStreams(pop *population, n int, rng *rand.Rand) []int {
	var out []int
	per := min(n/pop.conns, pop.perConn)
	for c := 0; c < pop.conns; c++ {
		lo, _ := pop.owned(c)
		for _, i := range rng.Perm(pop.perConn)[:per] {
			out = append(out, lo+i)
		}
	}
	return out
}

// streamRecords gathers, for each wanted stream, its corrections in
// ticks [0, upto) out of connection c's trace.
func streamRecords(tr *genTrace, c, upto int, want map[uint32][]record) {
	for _, rec := range tr.recs[c][:tr.start[c][upto]] {
		if recs, ok := want[rec.stream]; ok {
			want[rec.stream] = append(recs, rec)
		}
	}
}

// firstCorrectionFrom returns, per stream, the tick of the first
// correction at or after tick `from` (math.MaxUint32 when there is none).
func firstCorrectionFrom(tr *genTrace, from int) []uint32 {
	first := make([]uint32, len(tr.pop.streams))
	for i := range first {
		first[i] = math.MaxUint32
	}
	for c := range tr.recs {
		for _, rec := range tr.recs[c][tr.start[c][from]:] {
			if rec.tick < first[rec.stream] {
				first[rec.stream] = rec.tick
			}
		}
	}
	return first
}
