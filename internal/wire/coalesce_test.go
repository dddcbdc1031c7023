package wire

import (
	"bytes"
	"io"
	"math"
	"net"
	"os"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/source"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

// startServerWith runs a wire server with a private telemetry registry
// so batch-counter assertions don't race other tests on the default one.
func startServerWith(t *testing.T) (*Server, string, func()) {
	t.Helper()
	srv := NewServerWith(Options{Metrics: telemetry.New()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return srv, l.Addr().String(), func() {
		l.Close()
		<-done
	}
}

// TestCoalescedEndToEnd runs a full source over TCP with the write ring
// armed: corrections must batch into FrameMessageBatch frames, queries
// must flush the ring first (so answers always honour δ), and the
// server's coalescing telemetry must account for every frame.
func TestCoalescedEndToEnd(t *testing.T) {
	srv, addr, shutdown := startServerWith(t)
	defer shutdown()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.EnableCoalescing(CoalesceConfig{MaxCorrections: 8})

	delta := 0.05 // tight bound → dense corrections → real batches
	ns, err := NewNetworkedSource(conn, source.Config{
		StreamID: "coal-stream", Spec: cvSpec(), Delta: delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewSine(3, 50, 8, 200, 0, 0.1, 1200)
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if _, err := ns.Observe(p.Tick, p.Value); err != nil {
			t.Fatal(err)
		}
		// Query with corrections still pending in the write ring: the
		// flush-before-query rule must make the answer exact.
		if p.Tick%97 == 13 {
			ans, err := conn.Query("coal-stream", p.Tick)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ans.Estimate[0]-p.Value[0]) > delta+1e-9 {
				t.Fatalf("tick %d: coalesced answer %v vs %v exceeds δ=%v",
					p.Tick, ans.Estimate[0], p.Value[0], delta)
			}
		}
	}
	if err := conn.FlushCorrections(); err != nil {
		t.Fatal(err)
	}
	if n := conn.PendingCorrections(); n != 0 {
		t.Fatalf("%d corrections still pending after flush", n)
	}

	reg := srv.Registry()
	batches := reg.Counter("wire_frames_coalesced_total").Value()
	if batches == 0 {
		t.Fatal("no coalesced frames reached the server")
	}
	batched := reg.Histogram("wire_corrections_per_frame", telemetry.BatchSizeBuckets)
	perFrame := float64(batched.Sum()) / float64(batches)
	t.Logf("batches %d, %.1f corrections/frame, source sent %d of %d",
		batches, perFrame, ns.Stats().Sent, ns.Stats().Ticks)
	if perFrame < 2 {
		t.Fatalf("mean %0.1f corrections per batched frame — coalescing ineffective", perFrame)
	}
}

// TestCoalescedSingleCorrectionUsesLegacyFrame pins interop: a flush of
// a one-correction batch must go out as a plain FrameMessage (its
// payload is byte-identical to the unbatched encoding), so a sparse
// coalescing client still speaks to servers that predate batching.
func TestCoalescedSingleCorrectionUsesLegacyFrame(t *testing.T) {
	srv, addr, shutdown := startServerWith(t)
	defer shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.EnableCoalescing(CoalesceConfig{})
	if err := c.Register("solo", cvSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
	m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "solo", Tick: 1, Value: []float64{4.5}}
	if err := c.SendCorrection(m); err != nil {
		t.Fatal(err)
	}
	if got := c.PendingCorrections(); got != 1 {
		t.Fatalf("pending %d, want 1", got)
	}
	ans, err := c.Query("solo", 1) // flushes the batch of one
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Estimate[0]-4.5) > 0.5+1e-9 {
		t.Fatalf("correction lost: estimate %v", ans.Estimate[0])
	}
	if n := srv.Registry().Counter("wire_frames_coalesced_total").Value(); n != 0 {
		t.Fatalf("batch of one shipped as FrameMessageBatch (%d batched frames)", n)
	}
}

// FuzzCoalescedFrame drives the batch-apply path two ways. First,
// arbitrary bytes go straight into ApplyBatch: hostile payloads must
// produce structured errors, never panics. Second, a correction
// sequence derived from the fuzz input is delivered once as legacy
// single-message applies and once as a fuzz-chosen mix of batched and
// single frames; both servers must end bit-identical — batching is pure
// transport, whatever the framing mix.
func FuzzCoalescedFrame(f *testing.F) {
	var seedBatch netsim.Batch
	for i := 0; i < 3; i++ {
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: int64(i + 1), Value: []float64{float64(i)}}
		if err := seedBatch.Add(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seedBatch.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{1, 0, 1, 's', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile payload: must not panic, must not loop.
		hostile := NewServerWith(Options{Metrics: telemetry.New()})
		if err := hostile.Register(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
		var scratch netsim.Message
		hostile.ApplyBatch(data, &scratch)

		// Equivalence: same corrections, legacy framing vs mixed batching.
		single := NewServerWith(Options{Metrics: telemetry.New()})
		mixed := NewServerWith(Options{Metrics: telemetry.New()})
		for _, s := range []*Server{single, mixed} {
			if err := s.Register(RegisterPayload{ID: "s", Spec: cvSpec(), Delta: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		n := len(data) / 2
		if n > 64 {
			n = 64
		}
		var batch netsim.Batch
		var batchScratch netsim.Message
		flushBatch := func() {
			if batch.Count() == 0 {
				return
			}
			if _, err := mixed.ApplyBatch(batch.Bytes(), &batchScratch); err != nil {
				t.Fatalf("batched apply of valid corrections: %v", err)
			}
			batch.Reset()
		}
		lastTick := int64(0)
		for i := 0; i < n; i++ {
			m := &netsim.Message{
				Kind:     netsim.KindCorrection,
				StreamID: "s",
				Tick:     int64(i + 1),
				Value:    []float64{float64(int8(data[2*i]))},
			}
			lastTick = m.Tick
			if err := single.Apply(m); err != nil {
				t.Fatalf("single apply: %v", err)
			}
			if err := batch.Add(m); err != nil {
				t.Fatal(err)
			}
			// The fuzzer chooses the flush points — every mix of frame
			// sizes must be equivalent.
			if data[2*i+1]&1 == 1 {
				flushBatch()
			}
		}
		flushBatch()
		if lastTick == 0 {
			return
		}
		a1, err := single.Query(QueryPayload{ID: "s", Tick: lastTick})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := mixed.Query(QueryPayload{ID: "s", Tick: lastTick})
		if err != nil {
			t.Fatal(err)
		}
		if len(a1.Estimate) != len(a2.Estimate) || a1.Bound != a2.Bound {
			t.Fatalf("answers diverged: %+v vs %+v", a1, a2)
		}
		for i := range a1.Estimate {
			if math.Float64bits(a1.Estimate[i]) != math.Float64bits(a2.Estimate[i]) {
				t.Fatalf("estimate[%d] diverged: single %x mixed %x", i,
					math.Float64bits(a1.Estimate[i]), math.Float64bits(a2.Estimate[i]))
			}
		}
	})
}

// TestNonCoalescingClientBytes pins every byte a client that never armed
// the write ring puts on the wire for one fixed script: the hello, a
// registration, three corrections, a query and a metrics request.
// testdata/plain_client.bin was recorded once, from the client that still
// had a separate unbatched send path; never regenerate it.
func TestNonCoalescingClientBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/plain_client.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startQuietServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A one-connection proxy that keeps what the client wrote.
	var sent bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		in, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer out.Close()
		go io.Copy(in, out)
		io.Copy(io.MultiWriter(out, &sent), in)
	}()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register("s", cvSpec(), 0.5); err != nil {
		t.Fatal(err)
	}
	for tick, v := range []float64{1, 2.5, -3} {
		m := netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: int64(tick), Value: []float64{v}}
		if err := c.SendCorrection(&m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query("s", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if !bytes.Equal(sent.Bytes(), want) {
		t.Fatalf("client bytes differ from the recording:\n got %q\nwant %q", sent.Bytes(), want)
	}
}
