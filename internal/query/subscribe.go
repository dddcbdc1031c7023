package query

import (
	"fmt"
	"sync"
)

// Predicate is a continuous range condition on one stream component.
type Predicate struct {
	StreamID  string
	Component int
	Lo, Hi    float64
}

// Event reports a predicate's truth-state transition.
type Event struct {
	// Tick is the tick at which the transition was observed.
	Tick int64
	// SubID identifies the subscription.
	SubID int
	// Predicate is the condition that transitioned.
	Predicate Predicate
	// Old and New are the truth states before and after.
	Old, New Tristate
}

type subscription struct {
	id   int
	pred Predicate
	fn   func(Event)
	last Tristate
	live bool
	// primed distinguishes "never evaluated" from a genuine Unknown.
	primed bool
}

// Subscriptions evaluates registered continuous predicates against the
// server's bounded answers and fires callbacks on truth transitions —
// publish/subscribe over approximate caches. Because answers carry hard
// bounds, a True or False notification is *certain*; Unknown marks the
// grey zone where δ straddles a range edge, and a subscriber who needs a
// decision can react by tightening that stream's δ.
// Subscribe, Unsubscribe, Len, and Poll are safe to call from different
// goroutines (the concurrent System lets clients register predicates
// while streams are being observed); Poll itself stays on the single
// Advance goroutine, and callbacks must not re-enter the subscription
// set.
type Subscriptions struct {
	mu     sync.Mutex
	engine *Engine
	subs   []*subscription
	nextID int
}

// NewSubscriptions returns an empty subscription set over the engine.
func (e *Engine) NewSubscriptions() *Subscriptions {
	return &Subscriptions{engine: e}
}

// Subscribe registers a predicate; fn fires on every truth transition,
// including the initial evaluation. Returns the subscription id.
func (s *Subscriptions) Subscribe(p Predicate, fn func(Event)) (int, error) {
	if fn == nil {
		return 0, fmt.Errorf("query: nil subscription callback")
	}
	if p.Lo > p.Hi {
		return 0, fmt.Errorf("query: predicate range [%g, %g] is empty", p.Lo, p.Hi)
	}
	// Validate the stream/component eagerly so Poll cannot fail later on
	// a bad registration.
	if _, _, err := s.engine.value(p.StreamID, p.Component); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.subs = append(s.subs, &subscription{id: s.nextID, pred: p, fn: fn, live: true})
	return s.nextID, nil
}

// Unsubscribe removes a subscription.
func (s *Subscriptions) Unsubscribe(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		if sub.id == id && sub.live {
			sub.live = false
			return nil
		}
	}
	return fmt.Errorf("query: unknown subscription %d", id)
}

// Len returns the number of live subscriptions.
func (s *Subscriptions) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sub := range s.subs {
		if sub.live {
			n++
		}
	}
	return n
}

// Poll evaluates every live predicate at the given tick and fires
// callbacks for transitions, in subscription-id order.
func (s *Subscriptions) Poll(tick int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// subs is in id order by construction: Subscribe assigns ids and
	// appends under mu, and nothing reorders the slice.
	for _, sub := range s.subs {
		if !sub.live {
			continue
		}
		state, err := s.engine.Within(sub.pred.StreamID, sub.pred.Component, sub.pred.Lo, sub.pred.Hi)
		if err != nil {
			return fmt.Errorf("query: polling subscription %d: %w", sub.id, err)
		}
		if sub.primed && state == sub.last {
			continue
		}
		ev := Event{Tick: tick, SubID: sub.id, Predicate: sub.pred, Old: sub.last, New: state}
		if !sub.primed {
			ev.Old = Unknown
		}
		sub.last = state
		sub.primed = true
		sub.fn(ev)
	}
	return nil
}
