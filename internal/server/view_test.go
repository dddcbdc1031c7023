package server

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
)

// TestReadMovesNoRecord: only a source's messages move its record, so an
// answer depends on them alone, never on who read in between. A query at
// tick 40 between the corrections at ticks 7 and 12 must not land the
// tick-12 correction at tick 41: the answer at tick 60 is the same bits
// with and without it, and equal to the source's own replica.
func TestReadMovesNoRecord(t *testing.T) {
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.01, R: 0.1}}
	corrections := []struct {
		tick int64
		z    float64
	}{{3, 1.5}, {7, 2.25}, {12, 4}}
	answer := func(readAt int64) ([]float64, float64) {
		t.Helper()
		s := New()
		if err := s.Register("s", spec, 0.5); err != nil {
			t.Fatal(err)
		}
		for i, c := range corrections {
			if i == 2 && readAt >= 0 {
				if _, _, err := s.QueryAt("s", readAt); err != nil {
					t.Fatal(err)
				}
			}
			m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: c.tick, Value: []float64{c.z}}
			if _, _, err := s.Ingest(m, 0); err != nil {
				t.Fatal(err)
			}
		}
		est, bound, err := s.QueryAt("s", 60)
		if err != nil {
			t.Fatal(err)
		}
		return est, bound
	}
	quiet, qb := answer(-1)
	read, rb := answer(40)
	if !bitEqual(quiet, read) || qb != rb || qb != 0.5 {
		t.Fatalf("tick 60 answers %v ± %v unread, %v ± %v after a read at tick 40", quiet, qb, read, rb)
	}

	src, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	stepped := int64(0)
	for _, c := range corrections {
		src.StepN(c.tick + 1 - stepped)
		stepped = c.tick + 1
		if err := src.Correct([]float64{c.z}); err != nil {
			t.Fatal(err)
		}
	}
	src.StepN(61 - stepped)
	if want := src.PredictInto(0, make([]float64, src.Dim())); !bitEqual(quiet, want) {
		t.Fatalf("server answers %v at tick 60, the source's replica predicts %v", quiet, want)
	}
}

// TestViewLeavesEveryKindUntouched: for every predictor kind, reads ahead
// of the record — point, peek, distribution, info — answer what a twin
// rolled there answers, and leave the record's snapshot, tick and counts
// bit-identical.
func TestViewLeavesEveryKindUntouched(t *testing.T) {
	for name, spec := range everyKind() {
		t.Run(name, func(t *testing.T) {
			s, twin := New(), New()
			for _, srv := range []*Server{s, twin} {
				if err := srv.Register("s", spec, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(3))
			tick := int64(0)
			for range 40 {
				tick += 1 + int64(rng.Intn(5))
				m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: tick, Value: []float64{rng.NormFloat64()}}
				for _, srv := range []*Server{s, twin} {
					if _, _, err := srv.Ingest(m, 0); err != nil {
						t.Fatal(err)
					}
				}
				before, beforeInfo := checkpointStates(t, s), mustInfo(t, s)
				at := tick + 1 + int64(rng.Intn(30))
				if err := twin.Roll("s", at); err != nil {
					t.Fatal(err)
				}
				est, bound, err := s.QueryAt("s", at)
				wantEst, wantBound, werr := twin.QueryAt("s", at)
				if err != nil || werr != nil || !bitEqual(est, wantEst) || bound != wantBound {
					t.Fatalf("tick %d: answers %v ± %v (err %v), rolled twin %v ± %v (err %v)", at, est, bound, err, wantEst, wantBound, werr)
				}
				peek, _, err := s.PeekValue("s", at)
				if err != nil || !bitEqual(peek, wantEst) {
					t.Fatalf("tick %d: peek %v (err %v), want %v", at, peek, err, wantEst)
				}
				info, err := s.Info("s", at)
				if want := mustInfoAt(t, twin, at); err != nil || info.Tick != want.Tick || !bitEqual(info.Prediction, want.Prediction) {
					t.Fatalf("tick %d: info %+v (err %v), twin %+v", at, info, err, want)
				}
				e, sd, err := s.ValueDistribution("s", at)
				we, wsd, werr := twin.ValueDistribution("s", at)
				if (err == nil) != (werr == nil) || !bitEqual(e, we) || !bitEqual(sd, wsd) {
					t.Fatalf("tick %d: distribution %v/%v (err %v), twin %v/%v (err %v)", at, e, sd, err, we, wsd, werr)
				}
				if after := checkpointStates(t, s); !reflect.DeepEqual(after, before) {
					t.Fatalf("tick %d: reads moved the record's checkpoint from %+v to %+v", at, before, after)
				}
				if after := mustInfo(t, s); !reflect.DeepEqual(after, beforeInfo) {
					t.Fatalf("tick %d: reads moved the record from %+v to %+v", at, beforeInfo, after)
				}
				tick = at
			}
		})
	}
}

// TestBehindReadRefused: every read at a tick a message has already moved
// the record past is refused with ErrTickBehind and moves nothing; the
// record's own tick and a negative one read it where it stands.
func TestBehindReadRefused(t *testing.T) {
	s := New()
	if err := s.Register("s", kalmanSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 9, Value: []float64{2}}
	if _, _, err := s.Ingest(m, 0); err != nil {
		t.Fatal(err)
	}
	before := mustInfo(t, s)
	reads := map[string]func(tick int64) error{
		"QueryAt":           func(tick int64) error { _, _, err := s.QueryAt("s", tick); return err },
		"PeekValue":         func(tick int64) error { _, _, err := s.PeekValue("s", tick); return err },
		"ValueDistribution": func(tick int64) error { _, _, err := s.ValueDistribution("s", tick); return err },
		"Info":              func(tick int64) error { _, err := s.Info("s", tick); return err },
	}
	for name, read := range reads {
		for _, tick := range []int64{0, 8} {
			if err := read(tick); !errors.Is(err, ErrTickBehind) {
				t.Errorf("%s at tick %d behind a record at tick 9: %v, want ErrTickBehind", name, tick, err)
			}
		}
		for _, tick := range []int64{-1, 9} {
			if err := read(tick); err != nil {
				t.Errorf("%s at tick %d: %v", name, tick, err)
			}
		}
	}
	if est, bound, err := s.QueryAt("s", 9); err != nil || bound != 0 || est[0] != 2 {
		t.Fatalf("own tick answers %v ± %v (err %v), want the correction 2 ± 0", est, bound, err)
	}
	if after := mustInfo(t, s); !reflect.DeepEqual(after, before) {
		t.Fatalf("reads moved the record from %+v to %+v", before, after)
	}
}

func mustInfo(t *testing.T, s *Server) StreamInfo { return mustInfoAt(t, s, -1) }

func mustInfoAt(t *testing.T, s *Server, tick int64) StreamInfo {
	t.Helper()
	info, err := s.Info("s", tick)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// everyKind is one spec of every predictor kind, generic shapes aside.
func everyKind() map[string]predictor.Spec {
	return map[string]predictor.Spec{
		"static": {Kind: predictor.KindStatic, Dim: 1},
		"dr":     {Kind: predictor.KindDeadReckoning, Dim: 1},
		"ewma":   {Kind: predictor.KindEWMA, Dim: 1, Alpha: 0.4},
		"holt":   {Kind: predictor.KindHolt, Dim: 1, Alpha: 0.5, Beta: 0.2},
		"rw1":    {Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.5, R: 0.1}},
		"cv2":    kalmanSpec(),
		"adaptive": {Kind: predictor.KindKalman, Adaptive: true, AdaptiveWindow: 4,
			Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1}},
		"bank": {Kind: predictor.KindKalmanBank, Models: []predictor.ModelSpec{
			{Kind: predictor.ModelRandomWalk, Q: 0.5, R: 0.1},
			{Kind: predictor.ModelConstantVelocity, Q: 0.05, R: 0.1},
		}},
	}
}

// poisoned is a replica whose every writer panics, so a read that answers
// through it wrote nothing.
type poisoned struct{ predictor.Predictor }

func (poisoned) Step()                              { panic("a read stepped the replica") }
func (poisoned) StepN(int64)                        { panic("a read stepped the replica") }
func (poisoned) Correct([]float64) error            { panic("a read corrected the replica") }
func (poisoned) Restore([]float64) error            { panic("a read restored the replica") }
func (poisoned) AppendSnapshot([]float64) []float64 { panic("a read snapshotted the replica") }
func (poisoned) Clone() predictor.Predictor         { panic("a read cloned the replica") }

// TestPoisonedReplicaStillAnswers: a read writes nothing. With every
// writer of the record's replica poisoned, QueryAt, PeekValue and Info
// answer at the record's tick and 1, 64 and 4,096 ticks ahead of it, bit
// for bit what an unpoisoned control answers, and leave the record as
// they found it.
func TestPoisonedReplicaStillAnswers(t *testing.T) {
	for name, spec := range everyKind() {
		t.Run(name, func(t *testing.T) {
			s, control := New(), New()
			rng := rand.New(rand.NewSource(9))
			tick := int64(0)
			for _, srv := range []*Server{s, control} {
				if err := srv.Register("s", spec, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			for range 20 {
				tick += 1 + int64(rng.Intn(4))
				m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: tick, Value: []float64{rng.NormFloat64()}}
				for _, srv := range []*Server{s, control} {
					if _, _, err := srv.Ingest(m, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			sh, st, err := lock(s, "s")
			if err != nil {
				t.Fatal(err)
			}
			st.replica = poisoned{st.replica}
			sh.mu.Unlock()
			before := mustInfo(t, s)
			for _, gap := range []int64{0, 1, 64, 4096} {
				at := tick + gap
				est, bound, err := s.QueryAt("s", at)
				want, wantBound, werr := control.QueryAt("s", at)
				if err != nil || werr != nil || !bitEqual(est, want) || bound != wantBound {
					t.Fatalf("gap %d: QueryAt %v ± %v (err %v), control %v ± %v (err %v)", gap, est, bound, err, want, wantBound, werr)
				}
				if peek, _, err := s.PeekValue("s", at); err != nil || !bitEqual(peek, want) {
					t.Fatalf("gap %d: PeekValue %v (err %v), want %v", gap, peek, err, want)
				}
				if info, err := s.Info("s", at); err != nil || !reflect.DeepEqual(info, mustInfoAt(t, control, at)) {
					t.Fatalf("gap %d: Info %+v (err %v), control %+v", gap, info, err, mustInfoAt(t, control, at))
				}
			}
			if after := mustInfo(t, s); !reflect.DeepEqual(after, before) {
				t.Fatalf("reads moved the record from %+v to %+v", before, after)
			}
		})
	}
}

// TestQueryAheadAllocatesNothing: a query 64 ticks ahead of the record
// into the caller's buffer allocates nothing, for every kind.
func TestQueryAheadAllocatesNothing(t *testing.T) {
	for name, spec := range everyKind() {
		s := New()
		if err := s.Register("s", spec, 0.5); err != nil {
			t.Fatal(err)
		}
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: 5, Value: []float64{1.5}}
		if _, _, err := s.Ingest(m, 0); err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, 1)
		got := testing.AllocsPerRun(100, func() {
			if _, err := Query(s, "s", 5+64, dst); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: a query 64 ticks ahead makes %v allocations, want 0", name, got)
		}
	}
}
