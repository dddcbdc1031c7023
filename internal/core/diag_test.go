package core

import (
	"testing"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/stream"
	"kalmanstream/internal/telemetry"
)

// systemTickAllocs measures steady-state allocations per Advance+Observe
// tick for a system with the given recorder (nil = unarmed control).
func systemTickAllocs(t *testing.T, rec *diag.Recorder) float64 {
	t.Helper()
	sys, err := NewSystem(SystemConfig{Diag: rec})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Attach(StreamConfig{
		ID: "s", Predictor: KalmanRandomWalk(1, 0.01), Delta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewRandomWalk(11, 0, 1, 0.1, 1<<20)
	step := func() {
		p, ok := gen.Next()
		if !ok {
			t.Fatal("generator exhausted")
		}
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Observe(p.Value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm: predictor state
		step()
	}
	return testing.AllocsPerRun(2000, step)
}

// Arming the flight recorder must add zero allocations to the
// system-tick hot path: the armed run's per-tick allocation average
// must not exceed the unarmed control's.
func TestSystemTickZeroAllocWithDiag(t *testing.T) {
	control := systemTickAllocs(t, nil)
	rec := diag.NewRecorder(diag.Options{K: 16, Registry: telemetry.New()})
	armed := systemTickAllocs(t, rec)
	if armed > control {
		t.Errorf("armed system tick allocates %.3f/op vs control %.3f/op — recorder added allocations", armed, control)
	}
	// Delivered corrections are attributed all the same: the table is
	// read from the stream's record.
	if got := rec.Top(1)[diag.SketchCorrections]; len(got) != 1 || got[0].ID != "s" || got[0].Count == 0 || got[0].Err != 0 {
		t.Errorf("corrections table %+v, want one exact row for s", got)
	}
}
