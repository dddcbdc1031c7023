package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
)

// quietServer is a server with its own registry and no log output.
func quietServer() *Server {
	return NewServerWith(Options{Metrics: telemetry.New(), Logger: slog.New(slog.DiscardHandler)})
}

// handleBatch is a handle-form batch of n corrections over streams
// handles: record i names handle i % streams at tick base + i / streams.
func handleBatch(t testing.TB, dst []byte, n, streams int, base int64) []byte {
	m := netsim.Message{Kind: netsim.KindCorrection, Value: []float64{0}}
	for i := 0; i < n; i++ {
		m.Tick, m.Value[0] = base+int64(i/streams), float64(i)
		var err error
		if dst, err = m.AppendEncodeHandle(dst, uint32(i%streams)); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestLookAheadUnderChurn runs the batch look-ahead, which reads records
// without their lock, against everything that changes a record's
// registration: one connection streams batches over its handles while a
// second re-registers and queries the same streams and the node
// unregisters and resets them. make race checks the reads; the test
// checks every refusal is the unknown stream a dropped record earns.
func TestLookAheadUnderChurn(t *testing.T) {
	const streams, rounds = 16, 150
	srv := quietServer()
	defer srv.Close()
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("churn-%02d", i)
	}
	register := func(cw *connWriter) {
		for _, id := range ids {
			if err := registerOn(t, srv, cw, RegisterPayload{ID: id, Spec: modelSpecs[0], Delta: 0.5}); err != nil {
				t.Error(err)
			}
		}
	}
	a, b := handleConn(t, srv), handleConn(t, srv)
	register(a)
	register(b)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		var msg netsim.Message
		var frame []byte
		for r := 0; r < rounds; r++ {
			frame = handleBatch(t, frame[:0], 4*streams, streams, int64(4*r))
			if err := srv.dispatch(a, FrameMessageBatch, frame, &msg); err != nil {
				if !errors.Is(err, server.ErrUnknownStream) {
					t.Errorf("round %d: %v", r, err)
				}
				register(a)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			register(b)
			for _, id := range ids {
				_ = srv.dispatch(b, FrameQueryBin, appendQueryBin(nil, -1, id), nil)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if r%10 == 9 {
				srv.srv.Reset()
				continue
			}
			_ = srv.srv.Unregister(ids[r%streams])
		}
	}()
	wg.Wait()
}

// TestBadRecordInsideLookAhead: a frame whose record k is malformed,
// carries a non-finite value or names a handle the connection never
// assigned applies exactly records [0, k) and pushes the FrameRefused
// it did before the look-ahead existed, byte for byte — with the prefetch
// cursor already past k (k = 10, inside the first window) or at it from
// the window's far end (k = 70).
func TestBadRecordInsideLookAhead(t *testing.T) {
	const streams, records = 4, 100
	for _, c := range []struct {
		name string
		k    int
		bad  func(rec []byte)
		want string
	}{
		{"malformed", 10, func(rec []byte) { rec[0] = 0x3f }, "wire: batch record 10: netsim: unknown message kind 63"},
		{"malformed", 70, func(rec []byte) { rec[0] = 0x3f }, "wire: batch record 70: netsim: unknown message kind 63"},
		{"non-finite", 10, func(rec []byte) { binary.BigEndian.PutUint64(rec[15:], math.Float64bits(math.NaN())) },
			"wire: batch record 10: server: lh-2 correction at tick 2 carries a non-finite value"},
		{"non-finite", 70, func(rec []byte) { binary.BigEndian.PutUint64(rec[15:], math.Float64bits(math.Inf(-1))) },
			"wire: batch record 70: server: lh-2 correction at tick 17 carries a non-finite value"},
		{"unknown handle", 10, func(rec []byte) { binary.BigEndian.PutUint32(rec[1:], 9) },
			"wire: batch record 10: wire: unknown stream: no handle 9 on this connection"},
		{"unknown handle", 70, func(rec []byte) { binary.BigEndian.PutUint32(rec[1:], streams) },
			"wire: batch record 70: wire: unknown stream: no handle 4 on this connection"},
	} {
		t.Run(fmt.Sprintf("%s@%d", c.name, c.k), func(t *testing.T) {
			srv := quietServer()
			defer srv.Close()
			p := pipeTo(t, srv)
			defer p.close()
			expectOne(t, "hello", p.roundTrip(FrameHello, appendHello(nil, serverCaps)), FrameHello)
			for i := 0; i < streams; i++ {
				reg, _ := json.Marshal(RegisterPayload{ID: fmt.Sprint("lh-", i), Spec: modelSpecs[0], Delta: 0.5})
				expectOne(t, "register", p.roundTrip(FrameRegister, reg), FrameOK)
			}
			frame := handleBatch(t, nil, records, streams, 0)
			const size = 23 // one untraced, unstamped one-value record
			c.bad(frame[c.k*size : (c.k+1)*size])
			got := expectOne(t, "batch", p.roundTrip(FrameMessageBatch, frame), FrameRefused)
			if string(got) != c.want {
				t.Errorf("refusal %q, want %q", got, c.want)
			}
			applied := int64(0)
			for i := 0; i < streams; i++ {
				applied += mustInfo(t, srv, fmt.Sprint("lh-", i)).Corrections
			}
			if applied != int64(c.k) {
				t.Errorf("%d records applied, want %d", applied, c.k)
			}
		})
	}
}

// TestLongBatchThroughBoundedWindow: a 40,000-record frame, far longer
// than the look-ahead window, applies whole.
func TestLongBatchThroughBoundedWindow(t *testing.T) {
	const streams, records = 1000, 40_000
	srv := quietServer()
	defer srv.Close()
	cw := handleConn(t, srv)
	for i := 0; i < streams; i++ {
		if err := registerOn(t, srv, cw, RegisterPayload{ID: fmt.Sprint("long-", i), Spec: modelSpecs[0], Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	frame := handleBatch(t, nil, records, streams, 0)
	if len(frame)+1 > MaxFrameSize {
		t.Fatalf("a %d-byte frame does not fit MaxFrameSize", len(frame))
	}
	var msg netsim.Message
	if n, err := srv.applyBatch(cw, frame, &msg); n != records || err != nil {
		t.Fatalf("applied %d of %d records: %v", n, records, err)
	}
	if info := mustInfo(t, srv, "long-999"); info.Corrections != records/streams || info.Tick != records/streams {
		t.Fatalf("long-999: %d corrections, rolled to %d; want %d, %d", info.Corrections, info.Tick, records/streams, records/streams)
	}
}

// benchmarkApplyBatch applies 64-record handle-form frames spread over
// 10,000 streams, a window of the population after another. With cold
// set, a buffer larger than L2 is swept between frames, timer stopped, so
// each frame finds its records evicted, as on a paced connection.
func benchmarkApplyBatch(b *testing.B, cold bool) {
	const streams, perFrame = 10_000, 64
	srv := quietServer()
	defer srv.Close()
	cw := handleConn(b, srv)
	for i := 0; i < streams; i++ {
		if err := registerOn(b, srv, cw, RegisterPayload{ID: fmt.Sprint("ab-", i), Spec: modelSpecs[0], Delta: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	frames := make([][]byte, streams/perFrame)
	m := netsim.Message{Kind: netsim.KindCorrection, Value: []float64{0}}
	for f := range frames {
		for i := 0; i < perFrame; i++ {
			// 157 is prime to 10,000: every record of a pass names its own stream.
			frames[f], _ = m.AppendEncodeHandle(frames[f], uint32((f*perFrame+i)*157%streams))
		}
	}
	sweep := make([]byte, 8<<20)
	var msg netsim.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := frames[i%len(frames)]
		// Every record's tick moves past the last, so none is a duplicate.
		for off := 0; off < len(frame); off += 23 {
			binary.BigEndian.PutUint64(frame[off+5:], uint64(i/len(frames)))
		}
		if cold {
			b.StopTimer()
			for j := 0; j < len(sweep); j += 64 {
				sweep[j]++
			}
			b.StartTimer()
		}
		if _, err := srv.applyBatch(cw, frame, &msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyBatchWarm(b *testing.B) { benchmarkApplyBatch(b, false) }
func BenchmarkApplyBatchCold(b *testing.B) { benchmarkApplyBatch(b, true) }
