package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
)

// populate registers n random-walk Kalman streams on a fresh server with
// a private registry.
func populate(t testing.TB, n int) *Server {
	t.Helper()
	srv := NewServerWith(Options{Metrics: telemetry.New()})
	spec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 0.05, R: 0.1}}
	for i := 0; i < n; i++ {
		if err := srv.Register(RegisterPayload{ID: fmt.Sprintf("s%05d", i), Spec: spec, Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// TestTelemetryCardinalityIndependentOfPopulation: the registry holds
// totals, so its size — and with it /metrics, the metrics frame and the
// history store — does not depend on how many streams are registered.
func TestTelemetryCardinalityIndependentOfPopulation(t *testing.T) {
	var series [2]int
	for i, n := range []int{1_000, 20_000} {
		srv := populate(t, n)
		for _, id := range []string{"s00000", "s00007", fmt.Sprintf("s%05d", n-1)} {
			m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: 3, Value: []float64{1}}
			if err := srv.Apply(m); err != nil {
				t.Fatal(err)
			}
			if err := srv.Apply(m); err != nil { // the same tick again: a duplicate
				t.Fatal(err)
			}
			if _, err := srv.Query(QueryPayload{ID: id, Tick: 6}); err != nil {
				t.Fatal(err)
			}
			// The query at tick 6 moves nothing: the record stands at its
			// correction, with the 3 ticks before it suppressed.
			info := mustInfo(t, srv, id)
			if info.Corrections != 1 || info.Suppressed != 3 || info.Duplicates != 1 || info.Tick != 4 {
				t.Fatalf("%s: record counts %+v, want 1 sent, 3 suppressed, 1 duplicate at tick 4", id, info)
			}
		}
		checkTotals(t, srv, 0)
		if got := regTotal(srv.Registry(), "server_queries_total"); got != 3 {
			t.Fatalf("server_queries_total sums to %d, want 3", got)
		}
		// Every stream also ships one gate decision in-band, as a traced
		// source would: the auditor's verdicts are totals too.
		evs := make([]trace.Event, n)
		for j := range evs {
			evs[j] = trace.Event{StreamID: fmt.Sprintf("s%05d", j), Tick: 7, Stage: trace.StageGate,
				Outcome: trace.OutcomeSuppressed, Value: 0.1, Aux: 0.5}
		}
		batch, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.dispatch(handleConn(t, srv), FrameTrace, batch, nil); err != nil {
			t.Fatal(err)
		}
		if got := srv.Registry().Counter("audit_ticks_total").Value(); got != int64(n) || len(srv.Auditor().All()) != n {
			t.Fatalf("auditor saw %d ticks on %d streams, want %d on %d", got, len(srv.Auditor().All()), n, n)
		}

		snap := srv.Registry().Snapshot()
		series[i] = len(snap)
		for _, smp := range snap {
			if strings.Contains(smp.Labels, "stream=") {
				t.Fatalf("%d streams: series %s%s carries a stream label", n, smp.Name, smp.Labels)
			}
		}
		text, err := srv.MetricsText()
		if err != nil {
			t.Fatal(err)
		}
		if len(text) >= 64<<10 || len(text)+1 > MaxFrameSize {
			t.Fatalf("%d streams: metrics text is %d bytes", n, len(text))
		}
	}
	if series[0] != series[1] || series[0] >= 200 {
		t.Fatalf("registry holds %d series at 1,000 streams and %d at 20,000, want equal and < 200", series[0], series[1])
	}
}

// TestScrapeGarbage: a scrape appends the exposition into one buffer, so
// rendering a bare server's /metrics at 10,000 streams makes at most 250
// objects and 100 KB (2,487 objects and 235 KB for 27 KB of text when
// every line went through fmt and every scrape through Snapshot).
func TestScrapeGarbage(t *testing.T) {
	srv := populate(t, 10_000)
	defer srv.Close()
	if _, err := srv.MetricsText(); err != nil { // the first sizes the buffer
		t.Fatal(err)
	}
	const scrapes = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range scrapes {
		if _, err := srv.MetricsText(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / scrapes
	bytes := (after.TotalAlloc - before.TotalAlloc) / scrapes
	if objects > 250 || bytes > 100<<10 {
		t.Fatalf("a scrape makes %d objects and %d bytes, want ≤ 250 and ≤ 100 KB", objects, bytes)
	}
	t.Logf("a scrape makes %d objects and %d bytes", objects, bytes)
}

// discardConn is a net.Conn that swallows writes, deadlines included.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFrameAddsNoAllocs: the connection writer assembles a reply in
// its own buffer and accounts it on two resolved handles, so an answer,
// pong or OK costs no allocation and no registry lookup.
func TestWriteFrameAddsNoAllocs(t *testing.T) {
	srv := NewServerWith(Options{Metrics: telemetry.New()})
	cw := &connWriter{conn: discardConn{}, s: srv}
	payload := make([]byte, 64)
	got := testing.AllocsPerRun(200, func() {
		if err := cw.writeFrame(FrameAnswerBin, payload); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("writeFrame allocates %.1f per frame, want 0", got)
	}
	if n := srv.telFramesOut.Value(); n != 201 {
		t.Errorf("wire_frames_total{direction=out} = %d after 201 frames", n)
	}
	if n := srv.telBytesOut.Value(); n != 201*(5+64) {
		t.Errorf("wire_bytes_total{direction=out} = %d, want %d", n, 201*(5+64))
	}
}

// TestReadFrameIntoReusesOneBuffer: the connection handler's reader returns
// what ReadFrame returns, frame for frame, out of one buffer — no
// allocation once the buffer has seen its largest ordinary frame, and no
// megabyte kept after an oversized one.
func TestReadFrameIntoReusesOneBuffer(t *testing.T) {
	var stream bytes.Buffer
	sizes := []int{0, 1900, 16, 3, 1900, maxKeptFrameBody + 1, 40, 0, 700}
	for i, n := range sizes {
		if err := WriteFrame(&stream, uint8(1+i%12), bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()
	own, reused := bytes.NewReader(raw), bufio.NewReader(bytes.NewReader(raw))
	var buf []byte
	for i, n := range sizes {
		wantTyp, want, err := ReadFrame(own)
		if err != nil {
			t.Fatal(err)
		}
		typ, got, err := readFrameInto(reused, &buf)
		if err != nil || typ != wantTyp || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d, %d bytes, err %v; ReadFrame gave type %d, %d bytes", i, typ, len(got), err, wantTyp, len(want))
		}
		if i > 0 && sizes[i-1] > maxKeptFrameBody && cap(buf) > maxKeptFrameBody {
			t.Errorf("frame %d: a %d-byte buffer outlived the oversized frame before it (this one has %d bytes)", i, cap(buf), n)
		}
	}
	if _, _, err := readFrameInto(reused, &buf); err != io.EOF {
		t.Fatalf("after the last frame: err %v, want io.EOF", err)
	}

	small := raw[:5+0+5+1900+5+16] // the first three frames
	rd := bytes.NewReader(small)
	got := testing.AllocsPerRun(100, func() {
		rd.Reset(small)
		for i := 0; i < 3; i++ {
			if _, _, err := readFrameInto(rd, &buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 0 {
		t.Errorf("readFrameInto allocates %.1f per three warm frames, want 0", got)
	}
}

// recordingConn is a net.Conn that keeps every Write it is handed.
type recordingConn struct {
	net.Conn
	writes [][]byte
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

// TestWriteFrameIsOneWrite: a reply leaves the connection writer as one
// Write — on a TCP_NODELAY socket, one segment — and reads back as the
// frame it was. A payload too large to assemble still arrives whole, and
// one past the frame limit is refused before anything is written.
func TestWriteFrameIsOneWrite(t *testing.T) {
	srv := NewServerWith(Options{Metrics: telemetry.New()})
	conn := &recordingConn{}
	cw := &connWriter{conn: conn, s: srv}
	for _, f := range []struct {
		typ     uint8
		payload []byte
	}{
		{FrameAnswerBin, appendAnswerBin(nil, 0.5, []float64{1.5})},
		{FrameOK, nil},
		{FramePong, make([]byte, 8)},
		{FrameError, []byte("wire: no such stream")},
	} {
		conn.writes = nil
		if err := cw.writeFrame(f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
		if len(conn.writes) != 1 {
			t.Fatalf("%s frame left in %d writes, want 1", FrameName(f.typ), len(conn.writes))
		}
		typ, payload, err := ReadFrame(bytes.NewReader(conn.writes[0]))
		if err != nil || typ != f.typ || !bytes.Equal(payload, f.payload) {
			t.Fatalf("%s frame read back as type %d, payload %q, err %v", FrameName(f.typ), typ, payload, err)
		}
	}

	conn.writes = nil
	big := bytes.Repeat([]byte("m"), maxAssembledPayload+1)
	if err := cw.writeFrame(FrameMetricsReply, big); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(bytes.NewReader(bytes.Join(conn.writes, nil)))
	if err != nil || typ != FrameMetricsReply || !bytes.Equal(payload, big) {
		t.Fatalf("large frame read back as type %d, %d bytes, err %v", typ, len(payload), err)
	}
	if cap(cw.buf) >= len(big) {
		t.Errorf("connection buffer grew to %d bytes to hold a %d-byte reply", cap(cw.buf), len(big))
	}

	conn.writes = nil
	if err := cw.writeFrame(FrameMetricsReply, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err %v, want ErrFrameTooLarge", err)
	}
	if len(conn.writes) != 0 {
		t.Errorf("oversized frame wrote %d times before being refused", len(conn.writes))
	}
}

// TestHealthStreamsAtScale sizes the one per-stream surface: the streams
// table walks each shard once and asks no replica to predict, so it costs
// a handful of allocations however many streams it lists — and lists them
// in ID order.
func TestHealthStreamsAtScale(t *testing.T) {
	const n = 10_000
	srv := populate(t, n)
	if err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s00042", Tick: 9, Value: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	rows := srv.HealthStreams()
	if len(rows) != n {
		t.Fatalf("%d rows for %d streams", len(rows), n)
	}
	for i, row := range rows {
		if want := fmt.Sprintf("s%05d", i); row.ID != want || row.Delta != 0.5 {
			t.Fatalf("row %d is %+v, want stream %s with δ 0.5", i, row, want)
		}
	}
	if r := rows[42]; r.Sent != 1 || r.Suppressed != 9 {
		t.Fatalf("row s00042 is %+v, want 1 sent and 9 suppressed", r)
	}
	if avg := testing.AllocsPerRun(5, func() { srv.HealthStreams() }); avg > 4 {
		t.Errorf("HealthStreams allocates %.0f times for %d streams, want ≤ 4", avg, n)
	}
}
