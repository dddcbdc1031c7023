package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// encode is AppendEncode into a buffer of its own.
func encode(m *Message) ([]byte, error) { return m.AppendEncode(nil) }

// decode is DecodeInto a Message of its own.
func decode(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeBatch walks a batch payload with DecodeNext, as the wire server
// does, calling apply for every record until the first error; it returns
// how many records applied.
func decodeBatch(buf []byte, scratch *Message, apply func(*Message) error) (int, error) {
	n := 0
	for len(buf) > 0 {
		var err error
		if buf, err = DecodeNext(scratch, buf); err != nil {
			return n, err
		}
		if err := apply(scratch); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Kind: KindCorrection, StreamID: "sensor-1", Tick: 42, Value: []float64{1.5, -2.25}},
		{Kind: KindHeartbeat, StreamID: "s", Tick: -1},
		{Kind: KindDeltaUpdate, StreamID: "stream/with/slash", Tick: 0, Value: []float64{0.001}},
		{Kind: KindCorrection, StreamID: "", Tick: math.MaxInt64, Value: []float64{math.Inf(1), math.NaN()}},
	}
	for i, m := range msgs {
		buf, err := encode(m)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(buf) != m.EncodedSize() {
			t.Errorf("case %d: encoded %d bytes, EncodedSize says %d", i, len(buf), m.EncodedSize())
		}
		got, err := decode(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Kind != m.Kind || got.StreamID != m.StreamID || got.Tick != m.Tick {
			t.Errorf("case %d: header mismatch: %+v vs %+v", i, got, m)
		}
		if len(got.Value) != len(m.Value) {
			t.Fatalf("case %d: value length %d, want %d", i, len(got.Value), len(m.Value))
		}
		for j := range m.Value {
			if math.Float64bits(got.Value[j]) != math.Float64bits(m.Value[j]) {
				t.Errorf("case %d: value[%d] = %v, want %v", i, j, got.Value[j], m.Value[j])
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1},
		{99, 0, 0},                              // unknown kind
		{1, 0, 5, 'a'},                          // id truncated
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3}, // value truncated
	}
	for i, c := range cases {
		if _, err := decode(c); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	m := &Message{Kind: KindCorrection, StreamID: string(make([]byte, 70000))}
	if _, err := encode(m); err == nil {
		t.Fatal("oversized stream id accepted")
	}
	m2 := &Message{Kind: KindCorrection, Value: make([]float64, 70000)}
	if _, err := encode(m2); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := []MessageKind{KindCorrection, KindHeartbeat, KindDeltaUpdate}
		id := make([]byte, rng.Intn(20))
		for i := range id {
			id[i] = byte('a' + rng.Intn(26))
		}
		m := &Message{
			Kind:     kinds[rng.Intn(len(kinds))],
			StreamID: string(id),
			Tick:     rng.Int63() - rng.Int63(),
			Value:    make([]float64, rng.Intn(5)),
		}
		for i := range m.Value {
			m.Value[i] = rng.NormFloat64() * 1e6
		}
		if len(m.Value) == 0 {
			m.Value = nil
		}
		buf, err := encode(m)
		if err != nil {
			return false
		}
		got, err := decode(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkCountsAndDelivers(t *testing.T) {
	var got []*Message
	l := NewLink(func(m *Message) { got = append(got, m) }, LinkConfig{})
	m1 := &Message{Kind: KindCorrection, StreamID: "a", Tick: 1, Value: []float64{3}}
	m2 := &Message{Kind: KindHeartbeat, StreamID: "a", Tick: 2}
	l.Send(m1)
	l.Send(m2)
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	st := l.Stats()
	if st.Messages != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	wantBytes := int64(m1.EncodedSize() + m2.EncodedSize())
	if st.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if st.ByKind[KindCorrection] != 1 || st.ByKind[KindHeartbeat] != 1 {
		t.Fatalf("by-kind = %v", st.ByKind)
	}
}

func TestLinkDelay(t *testing.T) {
	var got []*Message
	l := NewLink(func(m *Message) { got = append(got, m) }, LinkConfig{DelayTicks: 2})
	l.Send(&Message{Kind: KindCorrection, StreamID: "a", Tick: 0, Value: []float64{1}})
	if len(got) != 0 || l.Pending() != 1 {
		t.Fatalf("message delivered before delay (got=%d pending=%d)", len(got), l.Pending())
	}
	l.Tick()
	if len(got) != 0 {
		t.Fatal("message delivered one tick early")
	}
	l.Tick()
	if len(got) != 1 || l.Pending() != 0 {
		t.Fatalf("message not delivered after delay (got=%d pending=%d)", len(got), l.Pending())
	}
}

func TestLinkDelayPreservesOrder(t *testing.T) {
	var got []*Message
	l := NewLink(func(m *Message) { got = append(got, m) }, LinkConfig{DelayTicks: 1})
	for i := int64(0); i < 5; i++ {
		l.Send(&Message{Kind: KindCorrection, StreamID: "a", Tick: i, Value: []float64{0}})
	}
	l.Tick()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, m := range got {
		if m.Tick != int64(i) {
			t.Fatalf("order violated: position %d has tick %d", i, m.Tick)
		}
	}
}

func TestLinkDrop(t *testing.T) {
	var got []*Message
	l := NewLink(func(m *Message) { got = append(got, m) }, LinkConfig{DropProb: 0.5, Seed: 9})
	const n = 2000
	for i := int64(0); i < n; i++ {
		l.Send(&Message{Kind: KindCorrection, StreamID: "a", Tick: i, Value: []float64{0}})
	}
	st := l.Stats()
	if st.Messages+st.Dropped != n {
		t.Fatalf("messages %d + dropped %d != %d", st.Messages, st.Dropped, n)
	}
	if st.Dropped < n/4 || st.Dropped > 3*n/4 {
		t.Fatalf("drop count %d wildly off for p=0.5", st.Dropped)
	}
	if int64(len(got)) != st.Messages {
		t.Fatalf("delivered %d, stats say %d", len(got), st.Messages)
	}
}

func TestLinkDropDeterministic(t *testing.T) {
	run := func() int64 {
		l := NewLink(func(*Message) {}, LinkConfig{DropProb: 0.3, Seed: 4})
		for i := int64(0); i < 500; i++ {
			l.Send(&Message{Kind: KindCorrection, StreamID: "a", Tick: i})
		}
		return l.Stats().Dropped
	}
	if run() != run() {
		t.Fatal("same-seed drop pattern not deterministic")
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	l := NewLink(func(*Message) {}, LinkConfig{})
	l.Send(&Message{Kind: KindCorrection, StreamID: "a"})
	snap := l.Stats()
	snap.ByKind[KindCorrection] = 999
	if l.Stats().ByKind[KindCorrection] != 1 {
		t.Fatal("Stats snapshot shares map with link")
	}
}

func TestMessageKindString(t *testing.T) {
	if KindCorrection.String() != "correction" ||
		KindHeartbeat.String() != "heartbeat" ||
		KindDeltaUpdate.String() != "delta-update" {
		t.Fatal("kind strings wrong")
	}
	if MessageKind(200).String() == "" {
		t.Fatal("unknown kind produced empty string")
	}
}
