package query

import (
	"testing"

	"kalmanstream/internal/netsim"
	"kalmanstream/internal/predictor"
	"kalmanstream/internal/server/servertest"
)

// subFixture: one static stream with δ=1, correctable at will.
func subFixture(t *testing.T) (*servertest.Clock, *Subscriptions, func(v float64)) {
	t.Helper()
	srv := servertest.New()
	if err := srv.Register("s", predictor.Spec{Kind: predictor.KindStatic, Dim: 1}, 1); err != nil {
		t.Fatal(err)
	}
	subs := New(srv.Server, srv.At).NewSubscriptions()
	tick := int64(0)
	correct := func(v float64) {
		srv.Tick()
		err := srv.Apply(&netsim.Message{Kind: netsim.KindCorrection, StreamID: "s", Tick: tick, Value: []float64{v}})
		if err != nil {
			t.Fatal(err)
		}
		srv.Tick() // settle so Within sees the δ-bounded prediction
		tick++
	}
	return srv, subs, correct
}

func TestSubscribeValidation(t *testing.T) {
	_, subs, _ := subFixture(t)
	if _, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 0, Hi: 10}, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if _, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 10, Hi: 0}, func(Event) {}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := subs.Subscribe(Predicate{StreamID: "zz", Lo: 0, Hi: 10}, func(Event) {}); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := subs.Subscribe(Predicate{StreamID: "s", Component: 7, Lo: 0, Hi: 10}, func(Event) {}); err == nil {
		t.Error("bad component accepted")
	}
}

func TestSubscriptionFiresOnTransitions(t *testing.T) {
	_, subs, correct := subFixture(t)
	var events []Event
	id, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 10, Hi: 20}, func(e Event) {
		events = append(events, e)
	})
	if err != nil {
		t.Fatal(err)
	}

	correct(15) // inside [10,20]: [14,16] ⊂ range → True
	if err := subs.Poll(0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].New != True || events[0].SubID != id {
		t.Fatalf("after first poll: %+v", events)
	}

	// No change → no event.
	if err := subs.Poll(1); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("duplicate event fired: %+v", events)
	}

	correct(20.5) // [19.5, 21.5] straddles 20 → Unknown
	if err := subs.Poll(2); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Old != True || events[1].New != Unknown {
		t.Fatalf("transition to unknown: %+v", events)
	}

	correct(30) // [29, 31] above → False, certain
	if err := subs.Poll(3); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].New != False || events[2].Tick != 3 {
		t.Fatalf("transition to false: %+v", events)
	}
}

func TestSubscriptionInitialEvaluationFires(t *testing.T) {
	_, subs, correct := subFixture(t)
	correct(100)
	var events []Event
	if _, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 0, Hi: 10}, func(e Event) {
		events = append(events, e)
	}); err != nil {
		t.Fatal(err)
	}
	if err := subs.Poll(5); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].New != False {
		t.Fatalf("initial evaluation: %+v", events)
	}
}

func TestUnsubscribe(t *testing.T) {
	_, subs, correct := subFixture(t)
	fired := 0
	id, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 0, Hi: 10}, func(Event) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if subs.Len() != 1 {
		t.Fatalf("len = %d", subs.Len())
	}
	if err := subs.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if subs.Len() != 0 {
		t.Fatalf("len after unsubscribe = %d", subs.Len())
	}
	if err := subs.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe accepted")
	}
	correct(5)
	if err := subs.Poll(0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("unsubscribed callback fired")
	}
}

func TestPollOrderIsDeterministic(t *testing.T) {
	_, subs, correct := subFixture(t)
	var order []int
	for i := 0; i < 5; i++ {
		if _, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 0, Hi: 100}, func(e Event) {
			order = append(order, e.SubID)
		}); err != nil {
			t.Fatal(err)
		}
	}
	correct(50)
	if err := subs.Poll(0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("firing order not ascending: %v", order)
		}
	}
}

func TestPollSurfacesEngineErrors(t *testing.T) {
	srv, subs, correct := subFixture(t)
	if _, err := subs.Subscribe(Predicate{StreamID: "s", Lo: 0, Hi: 10}, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	correct(5)
	if err := srv.Unregister("s"); err != nil {
		t.Fatal(err)
	}
	if err := subs.Poll(0); err == nil {
		t.Fatal("poll over removed stream succeeded")
	}
}
