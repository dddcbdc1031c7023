package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
)

// The reference model the deployed ingest path is held to. It keeps no
// replica: a stream is its registration plus the log of every message
// that took effect (with the replica tick it took effect at), and an
// answer is computed by replaying that log through a fresh predictor.
// Everything the real server caches — the advanced replica, the dedupe
// guard, the counters — is derived here from first principles.

type refOp struct {
	at int64 // replica tick the message was applied at
	m  netsim.Message
}

type refStream struct {
	spec    predictor.Spec
	delta   float64
	log     []refOp
	tick    int64 // replica ticks stepped so far
	ckpt    int64 // tick pinned by the last checkpoint
	durable int   // how much of log a crash preserves; -1: not even the registration
	carried int64 // corrections counted in the last checkpoint
}

// refDelta is what one operation adds to a stream's three counters.
type refDelta struct{ sent, suppressed, dup int64 }

type refModel map[string]*refStream

func (r refModel) register(id string, spec predictor.Spec, delta float64) error {
	if st, ok := r[id]; ok {
		if !reflect.DeepEqual(st.spec, spec) || st.delta != delta {
			return fmt.Errorf("conflict")
		}
		return nil
	}
	r[id] = &refStream{spec: spec, delta: delta, durable: -1}
	return nil
}

func (st *refStream) lastTick() int64 {
	if len(st.log) == 0 {
		return -1
	}
	return st.log[len(st.log)-1].m.Tick
}

// replay rebuilds the replica as of st.tick and reports the apply tick of
// the last value-bearing message.
func (st *refStream) replay() (p predictor.Predictor, lastValue []float64, lastValueAt int64, err error) {
	if p, err = st.spec.Build(); err != nil {
		return nil, nil, 0, err
	}
	cur, lastValueAt := int64(0), int64(-1)
	for _, op := range append(st.log[:len(st.log):len(st.log)], refOp{at: st.tick, m: netsim.Message{Kind: netsim.KindHeartbeat}}) {
		for ; cur < op.at; cur++ {
			p.Step()
		}
		switch op.m.Kind {
		case netsim.KindCorrection:
			err = p.Correct(op.m.Value)
			lastValue, lastValueAt = op.m.Value, op.at
		case netsim.KindResync:
			err = p.Restore(op.m.Value[p.Dim():])
			lastValue, lastValueAt = op.m.Value[:p.Dim()], op.at
		}
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return p, lastValue, lastValueAt, nil
}

func (r refModel) message(m *netsim.Message) (refDelta, error) {
	st, ok := r[m.StreamID]
	switch {
	case !ok:
		return refDelta{}, fmt.Errorf("unknown stream")
	case m.Tick <= st.lastTick():
		return refDelta{dup: 1}, nil
	case m.Tick-st.tick >= server.MaxAdvancePerMessage:
		return refDelta{}, fmt.Errorf("over the advance limit")
	}
	steps := max(m.Tick+1-st.tick, 0)
	st.tick += steps
	trial := *st
	trial.log = append(st.log[:len(st.log):len(st.log)], refOp{at: st.tick, m: *m})
	if _, _, _, err := trial.replay(); err != nil {
		return refDelta{}, err // the steps stay taken, the message has no effect
	}
	st.log = trial.log
	if m.Kind == netsim.KindHeartbeat {
		return refDelta{}, nil
	}
	return refDelta{sent: 1, suppressed: max(steps-1, 0)}, nil
}

// query answers as of tick and moves nothing: a read at the record's own
// tick or a negative one reads it where it stands, one ahead replays the
// log to that tick on a copy, and one behind — a message has already moved
// the record past it — is refused.
func (r refModel) query(id string, tick int64) (AnswerPayload, error) {
	st, ok := r[id]
	switch {
	case !ok:
		return AnswerPayload{}, fmt.Errorf("unknown stream")
	case tick >= 0 && tick+1 < st.tick:
		return AnswerPayload{}, server.ErrTickBehind
	case tick-st.tick >= server.MaxAdvancePerMessage:
		return AnswerPayload{}, fmt.Errorf("over the advance limit")
	}
	view := *st
	view.tick = max(st.tick, tick+1)
	p, lastValue, lastValueAt, err := view.replay()
	if err != nil {
		return AnswerPayload{}, err
	}
	ans := AnswerPayload{ID: id, Tick: tick, Estimate: p.PredictInto(0, make([]float64, p.Dim())), Bound: st.delta}
	if lastValueAt == view.tick {
		ans.Estimate, ans.Bound = lastValue, 0
	}
	return ans, nil
}

// synced marks everything logged so far as durable (a sync, or the sync a
// checkpoint starts with).
func (r refModel) synced() {
	for _, st := range r {
		st.durable = len(st.log)
	}
}

// crash models kill + recover: what was synced and the last checkpoint
// survive; the unsynced tail and the ticks refused messages rolled through
// since the checkpoint do not. It returns the corrections the recovered records
// carry out of the checkpoint rather than out of replay — the part of
// their count the new process's registry never saw.
func (r refModel) crash() (carried int64) {
	for id, st := range r {
		if st.durable < 0 {
			delete(r, id)
			continue
		}
		st.log, st.tick = st.log[:st.durable], st.ckpt
		if st.durable > 0 {
			st.tick = max(st.tick, st.log[st.durable-1].at)
		}
		carried += st.carried
	}
	return carried
}

// modelRun drives one seeded random operation sequence against a durable
// wire.Server and the reference, comparing answers, errors and counter
// movements at every step. Registrations and corrections go through conn,
// a connection that negotiated every capability, so every record names
// its stream by handle.
type modelRun struct {
	t       *testing.T
	seed    int64
	rng     *rand.Rand
	dir     string
	srv     *Server
	conn    *connWriter
	ref     refModel
	step    int
	carried int64 // see refModel.crash
}

// handleConn is a connection that negotiated every capability, driven
// through dispatch in process: its replies are discarded, its handle
// table read directly.
func handleConn(t testing.TB, srv *Server) *connWriter {
	t.Helper()
	cw := &connWriter{conn: discardConn{}, s: srv}
	if err := srv.dispatch(cw, FrameHello, appendHello(nil, serverCaps), nil); err != nil {
		t.Fatal(err)
	}
	return cw
}

// registerOn registers p over the connection cw.
func registerOn(t testing.TB, srv *Server, cw *connWriter, p RegisterPayload) error {
	t.Helper()
	buf, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return srv.dispatch(cw, FrameRegister, buf, nil)
}

var modelSpecs = []predictor.Spec{
	{Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.05, R: 0.1}},
	{Kind: predictor.KindKalman, Model: predictor.ModelSpec{Kind: predictor.ModelConstantVelocity, Q: 0.01, R: 0.1}},
	{Kind: predictor.KindStatic, Dim: 1},
}

func (r *modelRun) open() {
	srv, err := NewDurableServer(Options{Metrics: telemetry.New()}, Durability{Dir: r.dir, FlushEvery: 1 << 40})
	if err != nil {
		r.t.Fatalf("seed %d step %d: opening durable server: %v", r.seed, r.step, err)
	}
	r.srv, r.conn = srv, handleConn(r.t, srv)
}

func (r *modelRun) register(id string, spec predictor.Spec, delta float64) error {
	return registerOn(r.t, r.srv, r.conn, RegisterPayload{ID: id, Spec: spec, Delta: delta})
}

// apply sends m as a FrameMessage in the handle form; a stream with no
// handle on the connection gets one the connection never assigned, which
// the server refuses as an unknown stream.
func (r *modelRun) apply(m *netsim.Message) error {
	h, ok := r.conn.handles[m.StreamID]
	if !ok {
		h = uint32(len(r.conn.refs)) + 7
	}
	buf, err := m.AppendEncodeHandle(nil, h)
	if err != nil {
		r.t.Fatal(err)
	}
	var scratch netsim.Message
	return r.srv.dispatch(r.conn, FrameMessage, buf, &scratch)
}

// counters reads a stream's three counts from its record; a stream the
// server does not know has none.
func (r *modelRun) counters(id string) refDelta {
	info, err := r.srv.srv.Info(id, -1)
	if err != nil {
		return refDelta{}
	}
	return refDelta{sent: info.Corrections, suppressed: info.Suppressed, dup: info.Duplicates}
}

// check compares one operation's outcome on both sides.
func (r *modelRun) check(what, id string, before refDelta, gotErr, wantErr error, want refDelta) {
	r.t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		r.t.Fatalf("seed %d step %d %s: server error %v, model error %v", r.seed, r.step, what, gotErr, wantErr)
	}
	after := r.counters(id)
	got := refDelta{after.sent - before.sent, after.suppressed - before.suppressed, after.dup - before.dup}
	if got != want {
		r.t.Fatalf("seed %d step %d %s: counters moved %+v, model says %+v", r.seed, r.step, what, got, want)
	}
}

func (r *modelRun) send(m *netsim.Message) {
	r.t.Helper()
	before := r.counters(m.StreamID)
	want, wantErr := r.ref.message(m)
	r.check(fmt.Sprintf("%s %s@%d", m.Kind, m.StreamID, m.Tick), m.StreamID, before, r.apply(m), wantErr, want)
}

func (r *modelRun) query(id string, tick int64) {
	r.t.Helper()
	before := r.counters(id)
	want, wantErr := r.ref.query(id, tick)
	got, err := r.srv.Query(QueryPayload{ID: id, Tick: tick})
	what := fmt.Sprintf("query %s@%d", id, tick)
	r.check(what, id, before, err, wantErr, refDelta{}) // a read moves no counter
	if errors.Is(wantErr, server.ErrTickBehind) != errors.Is(err, server.ErrTickBehind) {
		r.t.Fatalf("seed %d step %d %s: server error %v, model error %v", r.seed, r.step, what, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.ID != want.ID || got.Tick != want.Tick || got.Bound != want.Bound || len(got.Estimate) != len(want.Estimate) {
		r.t.Fatalf("seed %d step %d %s: answer %+v, model %+v", r.seed, r.step, what, got, want)
	}
	for i := range got.Estimate {
		if math.Float64bits(got.Estimate[i]) != math.Float64bits(want.Estimate[i]) {
			r.t.Fatalf("seed %d step %d %s: answer %+v, model %+v", r.seed, r.step, what, got, want)
		}
	}
}

// value builds a valid payload for kind on the stream: a measurement, or
// a measurement followed by a snapshot a replica of that spec accepts.
func (r *modelRun) value(st *refStream, kind netsim.MessageKind) []float64 {
	z := r.rng.NormFloat64() * 10
	if kind != netsim.KindResync {
		return []float64{z}
	}
	p, err := st.spec.Build()
	if err != nil {
		r.t.Fatal(err)
	}
	for i := r.rng.Intn(4); i >= 0; i-- {
		p.Step()
		if err := p.Correct([]float64{z + float64(i)}); err != nil {
			r.t.Fatal(err)
		}
	}
	return p.AppendSnapshot([]float64{z})
}

func (r *modelRun) op() {
	ids := []string{"s0", "s1", "s2", "s3", "ghost"}
	id := ids[r.rng.Intn(len(ids))]
	st := r.ref[id]
	var tick, last int64 = 0, -1
	if st != nil {
		tick, last = st.tick, st.lastTick()
	}
	spec := modelSpecs[int(id[1]-'0')%len(modelSpecs)]
	switch p := r.rng.Intn(100); {
	case p < 8: // register: first time, or an identical re-registration
		if id == "ghost" {
			return
		}
		r.check("register "+id, id, r.counters(id), r.register(id, spec, 0.5), r.ref.register(id, spec, 0.5), refDelta{})
	case p < 11: // conflicting re-registration (or a first one with another δ)
		if id == "ghost" {
			return
		}
		other := modelSpecs[(int(id[1]-'0')+1)%len(modelSpecs)]
		r.check("register* "+id, id, r.counters(id), r.register(id, other, 0.75), r.ref.register(id, other, 0.75), refDelta{})
	case p < 45: // the next correction, a few ticks on
		r.send(&netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: last + 1 + int64(r.rng.Intn(6)), Value: []float64{r.rng.NormFloat64() * 10}})
	case p < 50: // heartbeat
		r.send(&netsim.Message{Kind: netsim.KindHeartbeat, StreamID: id, Tick: last + 1 + int64(r.rng.Intn(6))})
	case p < 55: // resync
		if st == nil {
			return
		}
		r.send(&netsim.Message{Kind: netsim.KindResync, StreamID: id, Tick: last + 1 + int64(r.rng.Intn(6)), Value: r.value(st, netsim.KindResync)})
	case p < 58: // a correction the replica cannot take: the apply fails
		r.send(&netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: last + 1 + int64(r.rng.Intn(6)), Value: []float64{1, 2}})
	case p < 61: // a tick beyond the advance limit
		over := []int64{tick + server.MaxAdvancePerMessage, tick + server.MaxAdvancePerMessage + 100, math.MaxInt64}
		r.send(&netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: over[r.rng.Intn(len(over))], Value: []float64{1}})
	case p < 68: // stale replay of a tail, as a reconnecting source re-sends it
		if st == nil {
			return
		}
		for _, op := range st.log[max(0, len(st.log)-1-r.rng.Intn(4)):] {
			m := op.m
			r.send(&m)
		}
	case p < 90: // query at, behind or ahead of the record (tick − 1 is its own)
		at := []int64{last, last - int64(r.rng.Intn(5)), tick - 1, tick - 2 - int64(r.rng.Intn(5)),
			tick + int64(r.rng.Intn(8)), tick + server.MaxAdvancePerMessage}
		r.query(id, at[r.rng.Intn(len(at))])
	case p < 95: // checkpoint
		if err := r.srv.Checkpoint(); err != nil {
			r.t.Fatalf("seed %d step %d: checkpoint: %v", r.seed, r.step, err)
		}
		r.ref.synced()
		for _, st := range r.ref {
			st.ckpt, st.carried = st.tick, 0
			for _, op := range st.log {
				if op.m.Kind != netsim.KindHeartbeat {
					st.carried++
				}
			}
		}
	default: // kill + recover, half the time with an unsynced tail to lose
		if r.rng.Intn(2) == 0 {
			if err := r.srv.WAL().Sync(); err != nil {
				r.t.Fatalf("seed %d step %d: sync: %v", r.seed, r.step, err)
			}
			r.ref.synced()
		}
		// Abandon the server without Close — nothing buffered may reach the
		// disk — stopping only its goroutine so the run does not pile them up.
		checkTotals(r.t, r.srv, r.carried)
		close(r.srv.stop)
		<-r.srv.done
		r.open()
		r.carried = r.ref.crash()
		for _, id := range slices.Sorted(maps.Keys(r.ref)) {
			r.query(id, r.ref[id].tick-1) // the recovered replica, exactly where the log left it
			// A source reconnecting to the new process registers again, and
			// its corrections name the stream by the new connection's handle.
			r.check("re-register "+id, id, r.counters(id), r.register(id, r.ref[id].spec, r.ref[id].delta), nil, refDelta{})
		}
	}
}

// TestModelDifferential is the net under the ingest path: random
// operation sequences — registrations, corrections, duplicates, replayed
// tails, heartbeats, resyncs, refused and failing frames, queries around
// the ingest tick, checkpoints, crashes — must leave the durable server
// and the log-replaying reference in agreement at every step.
func TestModelDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := &modelRun{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
			dir: filepath.Join(t.TempDir(), fmt.Sprint(seed)), ref: refModel{}}
		r.open()
		for r.step = 0; r.step < 150; r.step++ {
			r.op()
		}
		checkTotals(t, r.srv, r.carried)
		if err := r.srv.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}

// TestConcurrentIngestHammer is the -race net under the striped ingest
// path: goroutines owning disjoint streams, each on a connection of its
// own that names them by handle, interleave batch frames and Query (each
// reads only ticks it has already flushed, as the client contract says)
// while the watchdog scan, checkpoints, HealthStreams and a connection
// that keeps re-registering every stream and hanging up run beside them.
// Per-stream operations are linearizable, so the final answers must
// bit-equal a serial run of the same corrections in the id form.
func TestConcurrentIngestHammer(t *testing.T) {
	const workers, perWorker, ticks = 4, 8, 500
	quietLog := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := NewDurableServer(Options{Metrics: telemetry.New(), Logger: quietLog, StaleAfter: time.Millisecond},
		Durability{Dir: filepath.Join(t.TempDir(), "wal"), FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serial := NewServerWith(Options{Metrics: telemetry.New(), Logger: quietLog})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	// Every worker's frames are fixed up front: one batch per tick over a
	// random subset of its streams, in the handle form for its connection
	// and in the id form for the serial server.
	ids := make([][]string, workers)
	conns := make([]*connWriter, workers)
	frames, idFrames := make([][][]byte, workers), make([][][]byte, workers)
	for w := range ids {
		rng := rand.New(rand.NewSource(int64(w)))
		conns[w] = handleConn(t, srv)
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("w%d-s%d", w, i)
			ids[w] = append(ids[w], id)
			p := RegisterPayload{ID: id, Spec: modelSpecs[i%len(modelSpecs)], Delta: 0.5}
			if err := errors.Join(registerOn(t, srv, conns[w], p), serial.Register(p)); err != nil {
				t.Fatal(err)
			}
		}
		for tick := int64(0); tick < ticks; tick++ {
			var b, ib netsim.Batch
			for _, id := range ids[w] {
				if rng.Intn(3) == 0 {
					m := netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{rng.NormFloat64()}}
					if err := errors.Join(b.AddHandle(&m, conns[w].handles[id]), ib.Add(&m)); err != nil {
						t.Fatal(err)
					}
				}
			}
			frames[w] = append(frames[w], append([]byte(nil), b.Bytes()...))
			idFrames[w] = append(idFrames[w], append([]byte(nil), ib.Bytes()...))
		}
	}

	stop := make(chan struct{})
	var side, work sync.WaitGroup
	beside := func(fn func() error) {
		side.Add(1)
		go func() {
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	beside(srv.Checkpoint)
	beside(func() error { srv.HealthStreams(); staleIDs(srv); return nil })
	beside(func() error {
		c, err := Dial(l.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		for w := range ids {
			for i, id := range ids[w] {
				if err := c.Register(id, modelSpecs[i%len(modelSpecs)], 0.5); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for w := range ids {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			var scratch netsim.Message
			for tick, f := range frames[w] {
				if err := srv.dispatch(conns[w], FrameMessageBatch, f, &scratch); err != nil {
					t.Error(err)
					return
				}
				if _, err := srv.Query(QueryPayload{ID: ids[w][tick%perWorker], Tick: int64(tick)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	work.Wait()
	close(stop)
	side.Wait()

	var scratch netsim.Message
	for w := range ids {
		for _, f := range idFrames[w] {
			if _, err := serial.ApplyBatch(f, &scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := range ids {
		answersAt(t, ids[w], ticks, serial, srv)
	}
	checkTotals(t, srv, 0)
	checkTotals(t, serial, 0)
}
