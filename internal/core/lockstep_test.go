package core

import (
	"math"
	"testing"

	"kalmanstream/internal/server"
	"kalmanstream/internal/stream"
)

// lockStepRun attaches one constant-velocity Kalman stream to a System,
// lets impair set its uplink's impairments before every tick, and calls
// check after every tick's Observe with the server's record and the
// source's view of the replica.
func lockStepRun(t *testing.T, cfg StreamConfig, ticks int64, impair func(h *StreamHandle, tick int64), check func(tick int64, h *StreamHandle, info server.StreamInfo)) *StreamHandle {
	t.Helper()
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = KalmanConstantVelocity(0.05, 0.1)
	cfg.Delta = 0.5
	h, err := sys.Attach(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewSine(3, 0, 10, 200, 0, 0.2, ticks)
	for tick := int64(0); ; tick++ {
		p, ok := gen.Next()
		if !ok {
			return h
		}
		impair(h, tick)
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Observe(p.Value); err != nil {
			t.Fatal(err)
		}
		info, err := sys.Info(cfg.ID)
		if err != nil {
			t.Fatal(err)
		}
		check(tick, h, info)
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLockStepUnderDuplicates: a link that duplicates messages delivers
// each duplicate to the one ingest, whose dedupe guard drops it, so the
// server replica stays bit-equal to the source's on every tick and the
// record counts exactly the copies the link made.
func TestLockStepUnderDuplicates(t *testing.T) {
	h := lockStepRun(t, StreamConfig{ID: "dup", HeartbeatEvery: 25, LinkSeed: 9}, 3000,
		func(h *StreamHandle, tick int64) {
			if tick == 0 {
				h.Link().SetDuplicateProb(0.3)
			}
		},
		func(tick int64, h *StreamHandle, info server.StreamInfo) {
			if !bitEqual(info.Prediction, h.Prediction()) {
				t.Fatalf("tick %d: server replica %v, source's view %v", tick, info.Prediction, h.Prediction())
			}
		})
	sent, transmitted := h.Stats().Sent, h.LinkStats().Messages
	info, err := h.sys.Info("dup")
	if err != nil {
		t.Fatal(err)
	}
	if transmitted == sent {
		t.Fatal("the link duplicated nothing — test exercised nothing")
	}
	if info.Duplicates != transmitted-sent || info.Corrections != sent {
		t.Fatalf("record counts %d applied, %d duplicates; the source sent %d and the link made %d copies",
			info.Corrections, info.Duplicates, sent, transmitted-sent)
	}
}

// TestReorderedMessageIsALoss: a link whose delay shrinks while messages
// are in flight lets later messages overtake earlier ones. The ingest never
// applies a message after its successor — the record's last correction
// tick never moves back — and counts every overtaken one as a duplicate;
// the replica then diverges exactly as after a lost correction, and the
// resync path heals it back to bit-equality once the reordering ends.
func TestReorderedMessageIsALoss(t *testing.T) {
	const until = 1500
	last := int64(-1)
	diverged, healedAt := false, int64(-1)
	h := lockStepRun(t, StreamConfig{ID: "reorder", HeartbeatEvery: 25, ResyncEvery: 8, LinkSeed: 9}, 3000,
		func(h *StreamHandle, tick int64) {
			switch {
			case tick < until && tick%6 == 0:
				h.Link().SetDelayTicks(3)
			case tick < until && tick%6 == 2, tick == until:
				h.Link().SetDelayTicks(0)
			}
		},
		func(tick int64, h *StreamHandle, info server.StreamInfo) {
			if info.LastCorrectionTick < last {
				t.Fatalf("tick %d: applied a message from tick %d after one from tick %d",
					tick, info.LastCorrectionTick, last)
			}
			last = info.LastCorrectionTick
			equal := bitEqual(info.Prediction, h.Prediction())
			switch {
			case tick < until:
				diverged = diverged || !equal
			case equal && healedAt < 0:
				healedAt = tick
			case !equal && healedAt >= 0:
				t.Fatalf("tick %d: replicas diverged again after healing at tick %d", tick, healedAt)
			}
		})
	info, err := h.sys.Info("reorder")
	if err != nil {
		t.Fatal(err)
	}
	delivered := h.LinkStats().Messages - int64(h.Link().Pending())
	if info.Duplicates == 0 || info.Duplicates != delivered-info.Corrections {
		t.Fatalf("record counts %d applied and %d duplicates of %d delivered", info.Corrections, info.Duplicates, delivered)
	}
	if !diverged {
		t.Fatal("a dropped overtaken message never diverged the replica — test exercised nothing")
	}
	if healedAt < 0 || healedAt > until+200 {
		t.Fatalf("replicas healed at tick %d, want within 200 ticks of %d", healedAt, until)
	}
}

// TestLateAttachStaysInLockStep: a stream attached mid-run joins the tick
// clock where it stands — its replica has stepped none of the ticks before
// — so the first delivery does not roll it through the run's history and
// it stays bit-equal to its source from its first tick on.
func TestLateAttachStaysInLockStep(t *testing.T) {
	sys, err := NewSystem(SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gen := stream.NewSine(4, 0, 10, 200, 0, 0.2, 600)
	var h *StreamHandle
	for tick := int64(0); ; tick++ {
		p, ok := gen.Next()
		if !ok {
			break
		}
		if tick == 300 {
			if h, err = sys.Attach(StreamConfig{ID: "late", Predictor: KalmanConstantVelocity(0.05, 0.1), Delta: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Advance(); err != nil {
			t.Fatal(err)
		}
		if h == nil {
			continue
		}
		if _, err := h.Observe(p.Value); err != nil {
			t.Fatal(err)
		}
		info, err := sys.Info("late")
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(info.Prediction, h.Prediction()) {
			t.Fatalf("tick %d: server replica %v, source's view %v", tick, info.Prediction, h.Prediction())
		}
	}
}
