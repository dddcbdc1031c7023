package server

import (
	"reflect"
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/source"
)

func staticSpec() predictor.Spec { return predictor.Spec{Kind: predictor.KindStatic, Dim: 1} }

func TestRegisterValidation(t *testing.T) {
	s := New()
	if err := s.Register("", staticSpec(), 1); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.Register("a", staticSpec(), -1); err == nil {
		t.Error("negative delta accepted")
	}
	if err := s.Register("a", predictor.Spec{Kind: "bogus"}, 1); err == nil {
		t.Error("bad spec accepted")
	}
	if err := s.Register("a", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", staticSpec(), 1); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestSetDelta(t *testing.T) {
	s := New()
	if err := s.Register("a", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDelta("a", 0.25); err != nil {
		t.Fatal(err)
	}
	if d, _ := s.Delta("a"); d != 0.25 {
		t.Fatalf("delta = %v", d)
	}
	if err := s.SetDelta("a", -1); err == nil {
		t.Error("negative delta accepted")
	}
	if err := s.SetDelta("nope", 1); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := s.Delta("nope"); err == nil {
		t.Error("unknown stream delta answered")
	}
}

func TestStreamIDsSorted(t *testing.T) {
	s := New()
	for _, id := range []string{"c", "a", "b"} {
		if err := s.Register(id, staticSpec(), 1); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.StreamIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("ids = %v", ids)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestTickStream(t *testing.T) {
	s := New()
	if err := s.Register("a", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.TickStream("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.TickStream("nope"); err == nil {
		t.Error("unknown stream ticked")
	}
	info, _ := s.Info("a", -1)
	if info.Tick != 1 {
		t.Fatalf("tick = %d", info.Tick)
	}
}

func TestInfoUnknown(t *testing.T) {
	s := New()
	if _, err := s.Info("nope", -1); err == nil {
		t.Fatal("unknown stream info answered")
	}
}

func TestRegisterNormAndNorm(t *testing.T) {
	s := New()
	if err := s.Register("a", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	n, err := s.Norm("a")
	if err != nil || n != source.NormInf {
		t.Fatalf("default norm = %v, %v", n, err)
	}
	if err := s.RegisterAt("b", staticSpec(), 1, source.NormL2, 0); err != nil {
		t.Fatal(err)
	}
	n, err = s.Norm("b")
	if err != nil || n != source.NormL2 {
		t.Fatalf("norm = %v, %v", n, err)
	}
	info, err := s.Info("b", -1)
	if err != nil || info.Norm != source.NormL2 {
		t.Fatalf("info norm = %v, %v", info.Norm, err)
	}
	if err := s.RegisterAt("b", staticSpec(), 1, source.NormInf, 0); err == nil {
		t.Error("re-registration with another norm accepted")
	}
	if _, err := s.Norm("ghost"); err == nil {
		t.Error("unknown stream norm answered")
	}
}

func TestValueDistributionDirect(t *testing.T) {
	s := New()
	kfSpec := predictor.Spec{Kind: predictor.KindKalman,
		Model: predictor.ModelSpec{Kind: predictor.ModelRandomWalk, Q: 1, R: 0.25}}
	if err := s.Register("k", kfSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("flat", staticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	est, std, err := s.ValueDistribution("k", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 1 || len(std) != 1 || std[0] <= 0 {
		t.Fatalf("distribution = %v ± %v", est, std)
	}
	if _, _, err := s.ValueDistribution("flat", -1); err == nil {
		t.Error("distribution-free predictor answered")
	}
	if _, _, err := s.ValueDistribution("ghost", -1); err == nil {
		t.Error("unknown stream answered")
	}
}

// TestInfosIsInfoForEveryStream: the whole-population snapshot is the
// per-stream one without the prediction, in ID order, and reads the
// record live — counts kept with or without a registry, δ as last set.
func TestInfosIsInfoForEveryStream(t *testing.T) {
	s := New()
	ids := []string{"m", "a", "z", "k", "b"}
	for i, id := range ids {
		if err := s.Register(id, staticSpec(), 1); err != nil {
			t.Fatal(err)
		}
		m := &netsim.Message{Kind: netsim.KindCorrection, StreamID: id, Tick: int64(i + 2), Value: []float64{1}}
		for range 2 { // the second is a duplicate
			if _, _, err := s.Ingest(m, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.QueryAt(id, int64(i+5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetDelta("k", 0.25); err != nil {
		t.Fatal(err)
	}
	infos := s.Infos()
	if len(infos) != len(ids) {
		t.Fatalf("%d infos for %d streams", len(infos), len(ids))
	}
	for i, got := range infos {
		if i > 0 && infos[i-1].ID >= got.ID {
			t.Fatalf("infos not sorted: %q before %q", infos[i-1].ID, got.ID)
		}
		want, err := s.Info(got.ID, -1)
		if err != nil {
			t.Fatal(err)
		}
		if want.Prediction == nil || got.Prediction != nil {
			t.Fatalf("%s: Info predicts %v, Infos %v", got.ID, want.Prediction, got.Prediction)
		}
		want.Prediction = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Infos row %+v, Info %+v", got, want)
		}
	}
	// "k" was registered fourth: a correction at tick 5 after 5 rolled
	// ticks, one duplicate, and a query 3 ticks on that moved nothing — the
	// record still stands at tick 5.
	k := infos[2]
	if k.ID != "k" || k.Corrections != 1 || k.Suppressed != 5 || k.Tick != 6 || k.Duplicates != 1 || k.Delta != 0.25 {
		t.Fatalf("record of k = %+v", k)
	}
}

// TestBytesCountedWithCorrections: the record's byte count covers exactly
// the messages its correction count covers — corrections and resyncs, at
// their encoded size, not heartbeats and not what the dedupe guard drops —
// and WalkCounts hands a whole-population reader the same two numbers
// Info reports, for every stream.
func TestBytesCountedWithCorrections(t *testing.T) {
	s := New()
	for _, id := range []string{"a", "b", "idle"} {
		if err := s.Register(id, staticSpec(), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	msgs := []*netsim.Message{
		{Kind: netsim.KindCorrection, StreamID: "a", Tick: 1, Value: []float64{4}},
		{Kind: netsim.KindCorrection, StreamID: "a", Tick: 1, Value: []float64{4}}, // dropped: a duplicate
		{Kind: netsim.KindHeartbeat, StreamID: "a", Tick: 2},
		{Kind: netsim.KindResync, StreamID: "a", Tick: 3, Value: resyncValue(t, staticSpec(), 7)},
		{Kind: netsim.KindCorrection, StreamID: "b", Tick: 0, Value: []float64{1}, Trace: 9, Stamp: 5},
	}
	for _, m := range msgs {
		if _, _, err := s.Ingest(m, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][2]int64{
		"a":    {2, int64(msgs[0].EncodedSize() + msgs[3].EncodedSize())},
		"b":    {1, int64(msgs[4].EncodedSize())},
		"idle": {0, 0},
	}
	got := map[string][2]int64{}
	s.WalkCounts(func(id string, corrections, bytes, _ int64) { got[id] = [2]int64{corrections, bytes} })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WalkCounts saw %v, want %v", got, want)
	}
	for id, w := range want {
		info, err := s.Info(id, -1)
		if err != nil {
			t.Fatal(err)
		}
		if info.Corrections != w[0] || info.Bytes != w[1] {
			t.Errorf("%s: Info reports %d corrections, %d bytes, want %v", id, info.Corrections, info.Bytes, w)
		}
	}
}
