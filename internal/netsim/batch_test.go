package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

func batchMessages(n int) []*Message {
	msgs := make([]*Message, n)
	for i := range msgs {
		m := &Message{
			Kind:     KindCorrection,
			StreamID: fmt.Sprintf("s%02d", i%7),
			Tick:     int64(100 + i),
			Value:    []float64{float64(i) * 1.25, math.Pi * float64(i)},
		}
		if i%5 == 0 {
			m.Kind = KindDeltaUpdate
			m.Value = m.Value[:1]
		}
		if i%3 == 0 {
			m.Trace = uint64(i + 1)
		}
		msgs[i] = m
	}
	return msgs
}

// TestBatchRoundTrip: a batch is the concatenation of self-delimiting
// encodings; DecodeNext must walk every message back out in order with
// identical fields.
func TestBatchRoundTrip(t *testing.T) {
	msgs := batchMessages(23)
	var b Batch
	for _, m := range msgs {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if b.Count() != len(msgs) {
		t.Fatalf("count %d, want %d", b.Count(), len(msgs))
	}
	var scratch Message
	i := 0
	n, err := decodeBatch(b.Bytes(), &scratch, func(m *Message) error {
		want := msgs[i]
		if m.Kind != want.Kind || m.StreamID != want.StreamID ||
			m.Tick != want.Tick || m.Trace != want.Trace {
			return fmt.Errorf("record %d: got %+v want %+v", i, m, want)
		}
		if len(m.Value) != len(want.Value) {
			return fmt.Errorf("record %d: value len %d want %d", i, len(m.Value), len(want.Value))
		}
		for j := range m.Value {
			if math.Float64bits(m.Value[j]) != math.Float64bits(want.Value[j]) {
				return fmt.Errorf("record %d value %d: %g want %g", i, j, m.Value[j], want.Value[j])
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) {
		t.Fatalf("decoded %d, want %d", n, len(msgs))
	}
	b.Reset()
	if b.Count() != 0 || b.Len() != 0 {
		t.Fatal("reset did not empty the batch")
	}
}

// TestBatchTruncatedPayload: the DecodeNext walk must stop with an error
// (not panic, not loop) when the payload is cut mid-record.
func TestBatchTruncatedPayload(t *testing.T) {
	var b Batch
	for _, m := range batchMessages(4) {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	payload := b.Bytes()
	var scratch Message
	n, err := decodeBatch(payload[:len(payload)-3], &scratch, func(*Message) error { return nil })
	if err == nil {
		t.Fatal("truncated batch decoded cleanly")
	}
	if n != 3 {
		t.Fatalf("applied %d records before the cut, want 3", n)
	}
}

// TestMessagePoolConcurrent hammers the message pool from many
// goroutines, each running encode→batch→decode round trips on pooled
// messages. Run under -race this is the satellite's proof that the
// pooled-message harness loops (E2/E8) share the pool safely.
func TestMessagePoolConcurrent(t *testing.T) {
	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b Batch
			var scratch Message
			for r := 0; r < rounds; r++ {
				b.Reset()
				for i := 0; i < 4; i++ {
					m := GetMessage()
					m.Kind = KindCorrection
					m.StreamID = fmt.Sprintf("w%d", w)
					m.Tick = int64(r*4 + i)
					m.Value = append(m.Value[:0], float64(w), float64(r))
					if err := b.Add(m); err != nil {
						errs <- err
						return
					}
					PutMessage(m)
				}
				n, err := decodeBatch(b.Bytes(), &scratch, func(m *Message) error {
					if m.StreamID != fmt.Sprintf("w%d", w) || len(m.Value) != 2 || m.Value[0] != float64(w) {
						return fmt.Errorf("worker %d: cross-goroutine corruption: %+v", w, m)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if n != 4 {
					errs <- fmt.Errorf("worker %d: decoded %d", w, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHandleFormMatchesIDForm: a handle-form record is the id form with
// [idLen u16][id] replaced by [handle u32] — kind byte, flags, trace,
// stamp, tick and values unchanged — and decodes to the same fields.
func TestHandleFormMatchesIDForm(t *testing.T) {
	var hb, ib Batch
	msgs := batchMessages(12)
	for i, m := range msgs {
		if i%4 == 1 {
			m.Stamp = int64(1e9 + i)
		}
		h := uint32(i * 977)
		idForm, err := encode(m)
		if err != nil {
			t.Fatal(err)
		}
		hForm, err := m.AppendEncodeHandle(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		head := len(idForm) - 2 - len(m.StreamID) - 8 - 2 - 8*len(m.Value)
		want := binary.BigEndian.AppendUint32(append([]byte(nil), idForm[:head]...), h)
		want = append(want, idForm[head+2+len(m.StreamID):]...)
		if !bytes.Equal(hForm, want) {
			t.Fatalf("record %d: handle form % x, want % x", i, hForm, want)
		}
		ref, err := decode(idForm)
		if err != nil {
			t.Fatal(err)
		}
		got := Message{StreamID: "untouched"}
		gotH, rest, err := DecodeNextHandle(&got, hForm)
		if err != nil || len(rest) != 0 || gotH != h {
			t.Fatalf("record %d: handle %d, %d bytes left, %v", i, gotH, len(rest), err)
		}
		if got.StreamID != "untouched" {
			t.Fatalf("record %d: DecodeNextHandle set StreamID %q", i, got.StreamID)
		}
		got.StreamID = ref.StreamID
		if !reflect.DeepEqual(&got, ref) {
			t.Fatalf("record %d: handle form decodes to %+v, id form to %+v", i, got, *ref)
		}
		for cut := 0; cut < len(hForm); cut++ {
			if _, _, err := DecodeNextHandle(&got, hForm[:cut]); err == nil {
				t.Fatalf("record %d cut to %d bytes decoded", i, cut)
			}
		}
		if err := errors.Join(hb.AddHandle(m, h), ib.Add(m)); err != nil {
			t.Fatal(err)
		}
	}
	if hb.Count() != len(msgs) || hb.Count() != ib.Count() || hb.Len() >= ib.Len() {
		t.Fatalf("handle batch %d records, %d bytes; id batch %d records, %d bytes", hb.Count(), hb.Len(), ib.Count(), ib.Len())
	}
}
