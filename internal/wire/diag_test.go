package wire

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/telemetry"
)

// TestMessageDispatchZeroAllocWithDiag is the armed twin of
// TestMessageDispatchZeroAlloc: arming the flight recorder must not
// add a single allocation to the correction fast path — it adds nothing
// at all, the recorder reads the stream record when asked.
func TestMessageDispatchZeroAllocWithDiag(t *testing.T) {
	reg := telemetry.New()
	rec := diag.NewRecorder(diag.Options{K: 16, Registry: reg})
	srv := NewServerWith(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler), Diag: rec})
	defer srv.Close()

	var msg netsim.Message
	cw := streamConn(t, srv)
	m := netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Value: []float64{1}}
	var buf []byte
	tick := int64(0)
	// Warm: first apply grows predictor state.
	for ; tick < 8; tick++ {
		m.Tick = tick
		buf = buf[:0]
		buf, _ = m.AppendEncodeHandle(buf, 0)
		if err := srv.dispatch(cw, FrameMessage, buf, &msg); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		m.Tick = tick
		tick++
		buf = buf[:0]
		buf, _ = m.AppendEncodeHandle(buf, 0)
		if err := srv.dispatch(cw, FrameMessage, buf, &msg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("armed correction dispatch allocates %.2f per frame, want 0", avg)
	}
	// Every dispatched correction is attributed, and exactly, at the size
	// of its id form (the form the log stores).
	want := mustInfo(t, srv, "s")
	top := rec.Top(1)
	if got := top[diag.SketchCorrections]; len(got) != 1 || got[0] != (diag.Item{ID: "s", Count: want.Corrections}) || want.Corrections < 500 {
		t.Errorf("corrections table %+v, want one exact row of the record's %d (>= 500)", got, want.Corrections)
	}
	if got := top[diag.SketchBytes]; len(got) != 1 || got[0] != (diag.Item{ID: "s", Count: want.Corrections * int64(m.EncodedSize())}) {
		t.Errorf("bytes table %+v, want %d corrections of %d bytes", got, want.Corrections, m.EncodedSize())
	}
}

// TestTopTablesExactAtPopulation is the case the sketches could not
// serve: 10,000 streams against K = 128. Corrections: a uniform background
// and one whale, ingested as coalesced frames by two goroutines at once.
// Violations: 200 streams with 1…200 δ violations each, audited beside
// them. Stale: every stream marked once, and 200 of them 2…201 times.
// Pushed per event, every table past K was noise — misses that evicted
// some other stream, events dropped to contention, counts carrying an
// error bound as large as themselves. Read from the records, every row of
// /debug/top equals the stream's record or the auditor's count, and the
// heaviest streams rank first.
func TestTopTablesExactAtPopulation(t *testing.T) {
	const (
		streams    = 10_000
		k          = 128
		background = 3  // corrections every other stream receives
		whaleTotal = 60 // corrections the whale receives
		whale      = "s00042"
		offenders  = 200 // streams with distinct violation and stale counts
	)
	reg := telemetry.New()
	rec := diag.NewRecorder(diag.Options{K: k, Registry: reg})
	// The watchdog's deadline is far beyond the test, so only the scans
	// below mark anything.
	srv := NewServerWith(Options{Metrics: reg, Logger: slog.New(slog.DiscardHandler), Diag: rec, StaleAfter: time.Hour})
	defer srv.Close()
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%05d", i)
		if err := srv.Register(RegisterPayload{ID: ids[i], Spec: cvSpec(), Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	violator := func(j int) string { return ids[5000+j] } // j+1 violations
	staler := func(j int) string { return ids[7000+j] }   // j+2 stale episodes

	// Goroutine g owns the ids congruent to g mod 2: three rounds over them
	// in 64-record frames. The whale is goroutine 0's, and rides at the
	// head of its frames until it has its total. A third audits the
	// violators meanwhile.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch netsim.Message
			var frame []byte
			records, whaleTick := 0, int64(0)
			flush := func() {
				if _, err := srv.ApplyBatch(frame, &scratch); err != nil {
					t.Error(err)
				}
				frame, records = frame[:0], 0
			}
			add := func(id string, tick int64) {
				m := netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: tick, Value: []float64{1}}
				frame, _ = m.AppendEncode(frame)
				if records++; records == 64 {
					flush()
				}
			}
			for round := int64(0); round < background; round++ {
				for i := g; i < streams; i += 2 {
					if ids[i] == whale {
						continue
					}
					if records == 0 && g == 0 && whaleTick < whaleTotal {
						add(whale, whaleTick)
						whaleTick++
					}
					add(ids[i], round)
				}
			}
			flush()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := range offenders {
			for tick := range int64(j + 1) {
				srv.Auditor().Check(violator(j), tick, 2, 1, true)
			}
		}
	}()
	// A reader beside them, as /debug/top would be: whenever it looks, every
	// row it gets is some count the stream's record really held.
	ingested := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			top := rec.Top(10)
			for _, row := range top[diag.SketchCorrections] {
				if row.Err != 0 || row.Count > whaleTotal {
					t.Errorf("mid-ingest corrections row %+v", row)
				}
			}
			for _, row := range top[diag.SketchViolations] {
				if row.Err != 0 || row.Count > offenders {
					t.Errorf("mid-ingest violations row %+v", row)
				}
			}
			select {
			case <-ingested:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(ingested)
	<-readerDone

	// Stale episodes: each scan past the deadline marks every stream not
	// already stale, and a heartbeat (which moves no correction count)
	// clears the streams that are owed another episode.
	far := srv.clock() + 2*int64(time.Hour)
	for episode := 1; episode <= offenders+1; episode++ {
		srv.srv.ScanSilent(far)
		for j := range offenders {
			if j+2 > episode {
				hb := netsim.Message{Kind: netsim.KindHeartbeat, StreamID: staler(j), Tick: 1000 + int64(episode)}
				if err := srv.Apply(&hb); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if got := rec.Dropped(); got != 0 || regTotal(reg, "diag_events_dropped_total") != 0 {
		t.Errorf("%d attribution events dropped, want 0", got)
	}
	recSize := int64((&netsim.Message{Kind: netsim.KindCorrection, StreamID: whale, Value: []float64{1}}).EncodedSize())
	if info := mustInfo(t, srv, whale); info.Corrections != whaleTotal || info.Bytes != whaleTotal*recSize {
		t.Fatalf("whale's record: %d corrections, %d bytes, want %d and %d", info.Corrections, info.Bytes, whaleTotal, whaleTotal*recSize)
	}

	// n=0 asks for everything: K rows, not the population.
	resp := httptest.NewRecorder()
	diag.TopHandler(rec).ServeHTTP(resp, httptest.NewRequest("GET", "/debug/top?n=0", nil))
	var top diag.TopPayload
	if err := json.Unmarshal(resp.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if top.K != k {
		t.Errorf("/debug/top k %d, want %d", top.K, k)
	}
	heaviest := map[string]string{
		diag.SketchCorrections: whale,
		diag.SketchBytes:       whale,
		diag.SketchViolations:  violator(offenders - 1),
		diag.SketchStale:       staler(offenders - 1),
	}
	for _, table := range diag.TableOrder {
		rows := top.Sketches[table]
		if len(rows) != k {
			t.Fatalf("%s: %d rows, want %d", table, len(rows), k)
		}
		if rows[0].ID != heaviest[table] {
			t.Errorf("%s: rank 1 is %+v, want %s", table, rows[0], heaviest[table])
		}
		for i, row := range rows {
			info := mustInfo(t, srv, row.ID)
			want := map[string]int64{
				diag.SketchCorrections: info.Corrections,
				diag.SketchBytes:       info.Bytes,
				diag.SketchViolations:  srv.Auditor().Stats(row.ID).Violations,
				diag.SketchStale:       info.StaleEpisodes,
			}[table]
			if row.Count != want || row.Err != 0 {
				t.Errorf("%s row %d: %+v, the record says %d", table, i, row, want)
			}
			// Ranked by count, then ID.
			if i > 0 && (rows[i-1].Count < row.Count || rows[i-1].Count == row.Count && rows[i-1].ID >= row.ID) {
				t.Errorf("%s rows %d,%d out of order: %+v, %+v", table, i-1, i, rows[i-1], row)
			}
		}
	}
	// The offenders' counts are distinct and the table holds the top K of
	// them, exactly: 200, 199, … for violations, 201, 200, … for stale.
	for i, row := range top.Sketches[diag.SketchViolations] {
		if row.ID != violator(offenders-1-i) || row.Count != int64(offenders-i) {
			t.Fatalf("violations row %d: %+v, want %s=%d", i, row, violator(offenders-1-i), offenders-i)
		}
	}
	for i, row := range top.Sketches[diag.SketchStale] {
		if row.ID != staler(offenders-1-i) || row.Count != int64(offenders+1-i) {
			t.Fatalf("stale row %d: %+v, want %s=%d", i, row, staler(offenders-1-i), offenders+1-i)
		}
	}
}
