package netsim

// Batched message codec. The netsim encoding is self-delimiting, so a
// batch is simply the concatenation of record encodings — AppendEncode's,
// or AppendEncodeHandle's on a connection that names streams by handle;
// DecodeNext (DecodeNextHandle) walks the concatenation back out without
// copying or per-message allocation. The wire layer ships such batches as
// one coalesced frame (one syscall per burst instead of one per
// correction).

// Batch accumulates messages into one self-delimiting payload.
// The zero value is ready to use. Not safe for concurrent use.
type Batch struct {
	buf   []byte
	count int
}

// Add appends m's encoding to the batch.
func (b *Batch) Add(m *Message) error {
	buf, err := m.AppendEncode(b.buf)
	return b.add(buf, err)
}

// AddHandle appends m's handle-form encoding, naming its stream by h.
func (b *Batch) AddHandle(m *Message, h uint32) error {
	buf, err := m.AppendEncodeHandle(b.buf, h)
	return b.add(buf, err)
}

func (b *Batch) add(buf []byte, err error) error {
	if err != nil {
		return err
	}
	b.buf = buf
	b.count++
	return nil
}

// Count returns the number of messages in the batch.
func (b *Batch) Count() int { return b.count }

// Len returns the batch's encoded size in bytes.
func (b *Batch) Len() int { return len(b.buf) }

// Bytes returns the encoded batch. The slice is invalidated by the next
// Add or Reset.
func (b *Batch) Bytes() []byte { return b.buf }

// Reset empties the batch, retaining the buffer's capacity.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}
