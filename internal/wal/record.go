// Record framing for the write-ahead log. Every record — in segments
// and in checkpoint files alike — uses the same self-delimiting frame:
//
//	[u32 length][u8 type][i64 tick][payload][u32 crc]
//
// length covers type+tick+payload (so the minimum is 9), and the CRC
// (IEEE crc32) covers the same bytes. A record that fails any bound or
// the checksum is treated as torn: recovery truncates the log there
// rather than applying a half-written suffix. The payload for message
// records is the pooled netsim binary encoding — the same bytes that
// crossed the wire — so appending a correction costs one buffer append
// and no re-serialization.

package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"kalmanstream/internal/predictor"
)

// RecordType discriminates log records.
type RecordType uint8

// Record types.
const (
	// RecRegister carries a stream registration as JSON (RegisterRecord):
	// replaying it re-creates the replica from its spec.
	RecRegister RecordType = 1
	// RecMessage carries one applied protocol message in the netsim
	// binary encoding; the frame's tick is the server tick at apply time.
	RecMessage RecordType = 2
	// recJSONCheckpoint is the one record an older build's checkpoint
	// file held, a JSON payload. This build refuses it: ErrJSONCheckpoint.
	recJSONCheckpoint RecordType = 3
	// RecState carries one stream's moving state in a checkpoint (State,
	// binary); the frame's tick is the stream's tick. Its stream's
	// RecRegister precedes it. Never written to segments.
	RecState RecordType = 4
	// recSeal ends a checkpoint file: its tick is the covered sequence and
	// its payload the number of RecState records as a u64. Never written
	// to segments.
	recSeal RecordType = 5
)

const (
	// recordOverhead is the fixed framing cost per record: length(4) +
	// type(1) + tick(8) + crc(4).
	recordOverhead = 4 + 1 + 8 + 4
	// maxRecordBody bounds a record's length so a corrupted header cannot
	// demand an unbounded allocation. A checkpoint holds one state record
	// per stream, so the bound is per stream (Spec.Build refuses a spec
	// whose snapshot could pass predictor.MaxSnapshot floats, 512 KiB, far
	// below it), never per population.
	maxRecordBody = 16 << 20
)

// RegisterRecord is the JSON payload of a RecRegister record. Norm is
// the gate's deviation norm as its integer code (source.Norm), kept as
// a plain int so the log format does not depend on the source package.
type RegisterRecord struct {
	ID    string         `json:"id"`
	Spec  predictor.Spec `json:"spec"`
	Delta float64        `json:"delta"`
	Norm  int            `json:"norm,omitempty"`
}

// appendRecord frames one record onto buf and returns the extended
// slice. With spare capacity it does not allocate.
func appendRecord(buf []byte, typ RecordType, tick int64, payload []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+8+len(payload)))
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint64(buf, uint64(tick))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:]))
}

// appendCRC seals a record whose frame was built in place starting at
// start: it checksums everything after the length word and appends it.
func appendCRC(buf []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start+4:]))
}

// encodeJSON marshals a record payload.
func encodeJSON(v any) ([]byte, error) { return json.Marshal(v) }

// decodeRecord parses one record from the front of b. payload aliases
// b. ok=false reports a torn or corrupt record at this position — the
// caller stops (and truncates) there; it is not an error for the bytes
// after a crash to end mid-record.
func decodeRecord(b []byte) (typ RecordType, tick int64, payload []byte, size int, ok bool) {
	if len(b) < recordOverhead {
		return 0, 0, nil, 0, false
	}
	length := binary.BigEndian.Uint32(b)
	if length < 9 || length > maxRecordBody {
		return 0, 0, nil, 0, false
	}
	size = 4 + int(length) + 4
	if len(b) < size {
		return 0, 0, nil, 0, false
	}
	body := b[4 : 4+length]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[4+length:]) {
		return 0, 0, nil, 0, false
	}
	typ = RecordType(body[0])
	tick = int64(binary.BigEndian.Uint64(body[1:9]))
	return typ, tick, body[9:], size, true
}

// DecodeRegister parses a RecRegister payload.
func DecodeRegister(payload []byte) (RegisterRecord, error) {
	var rec RegisterRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return RegisterRecord{}, fmt.Errorf("wal: bad register record: %w", err)
	}
	if rec.ID == "" {
		return RegisterRecord{}, fmt.Errorf("wal: register record without stream id")
	}
	return rec, nil
}

// State is one stream's RecState record: its moving state as a
// checkpoint captured it. Its Tick travels as the record's frame tick.
type State struct {
	ID string
	Live
	// Value is the last correction's measurement, the exact answer on
	// tick LastValueTick; Snapshot is the predictor's flat state vector
	// (predictor.Snapshotter layout for the registered spec's kind).
	Value, Snapshot []float64
}

// appendState frames st as a RecState record onto buf. The payload is
// [u32 id length][id][f64 δ][i64 lastCorr][i64 corrections]
// [i64 lastValueTick][u32 value count][value floats][snapshot floats],
// big-endian, floats as their IEEE bits, so NaN payloads and −0 survive.
func appendState(buf []byte, st *State) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(RecState))
	buf = binary.BigEndian.AppendUint64(buf, uint64(st.Tick))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.ID)))
	buf = append(buf, st.ID...)
	for _, v := range [...]uint64{math.Float64bits(st.Delta), uint64(st.LastCorr), uint64(st.Corrections), uint64(st.LastValueTick)} {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(st.Value)))
	for _, floats := range [...][]float64{st.Value, st.Snapshot} {
		for _, v := range floats {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return appendCRC(buf, start)
}

var errBadState = errors.New("wal: bad state record")

// DecodeState parses a RecState record's payload, with its frame tick,
// into st, reusing st's Value and Snapshot arrays.
func DecodeState(tick int64, payload []byte, st *State) error {
	if len(payload) < 4 {
		return errBadState
	}
	n := uint64(binary.BigEndian.Uint32(payload))
	p := payload[4:]
	if n == 0 || uint64(len(p)) < n+4*8+4 {
		return errBadState
	}
	st.ID, st.Tick, p = string(p[:n]), tick, p[n:]
	st.Delta = math.Float64frombits(binary.BigEndian.Uint64(p))
	st.LastCorr = int64(binary.BigEndian.Uint64(p[8:]))
	st.Corrections = int64(binary.BigEndian.Uint64(p[16:]))
	st.LastValueTick = int64(binary.BigEndian.Uint64(p[24:]))
	nValue := uint64(binary.BigEndian.Uint32(p[32:]))
	if p = p[36:]; len(p)%8 != 0 || nValue > uint64(len(p)/8) {
		return errBadState
	}
	st.Value, st.Snapshot = st.Value[:0], st.Snapshot[:0]
	for i := 0; i < len(p); i += 8 {
		v := math.Float64frombits(binary.BigEndian.Uint64(p[i:]))
		if uint64(i) < 8*nValue {
			st.Value = append(st.Value, v)
		} else {
			st.Snapshot = append(st.Snapshot, v)
		}
	}
	return nil
}
