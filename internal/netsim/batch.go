package netsim

// Batched message codec. The netsim encoding is self-delimiting, so a
// batch is simply the concatenation of AppendEncode outputs; DecodeNext
// walks the concatenation back out without copying or per-message
// allocation. The wire layer ships such batches as one coalesced frame
// (one syscall per burst instead of one per correction).

// Batch accumulates messages into one self-delimiting payload.
// The zero value is ready to use. Not safe for concurrent use.
type Batch struct {
	buf      []byte
	count    int
	lastTick int64
}

// Add appends m's encoding to the batch.
func (b *Batch) Add(m *Message) error {
	buf, err := m.AppendEncode(b.buf)
	if err != nil {
		return err
	}
	b.buf = buf
	b.count++
	b.lastTick = m.Tick
	return nil
}

// Count returns the number of messages in the batch.
func (b *Batch) Count() int { return b.count }

// Len returns the batch's encoded size in bytes.
func (b *Batch) Len() int { return len(b.buf) }

// LastTick returns the tick of the most recently added message — the
// signal flush-on-tick-boundary policies key on. Meaningless when the
// batch is empty.
func (b *Batch) LastTick() int64 { return b.lastTick }

// Bytes returns the encoded batch. The slice is invalidated by the next
// Add or Reset.
func (b *Batch) Bytes() []byte { return b.buf }

// Reset empties the batch, retaining the buffer's capacity.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// DecodeBatch decodes every message in a batch payload front to back,
// invoking apply for each. The scratch message is reused across
// sub-records, so a steady stream of batches decodes without allocating;
// apply must copy anything it keeps. It returns the number of messages
// applied before the first error (decode or apply), if any.
func DecodeBatch(buf []byte, scratch *Message, apply func(*Message) error) (int, error) {
	n := 0
	for len(buf) > 0 {
		rest, err := DecodeNext(scratch, buf)
		if err != nil {
			return n, err
		}
		if err := apply(scratch); err != nil {
			return n, err
		}
		n++
		buf = rest
	}
	return n, nil
}
