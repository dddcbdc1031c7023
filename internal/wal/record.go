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
	"fmt"
	"hash/crc32"

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
	// recCheckpoint is the single record a checkpoint file holds; its
	// payload is the JSON Checkpoint and its tick the covered sequence.
	// Never written to segments.
	recCheckpoint RecordType = 3
)

const (
	// recordOverhead is the fixed framing cost per record: length(4) +
	// type(1) + tick(8) + crc(4).
	recordOverhead = 4 + 1 + 8 + 4
	// maxRecordBody bounds a segment record's length so a corrupted
	// header cannot demand an unbounded allocation. A checkpoint record is
	// bounded by its file instead (loadCheckpoint): it carries every
	// stream's snapshot and outgrows any fixed bound with the population.
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
	return decodeBounded(b, maxRecordBody)
}

// decodeBounded is decodeRecord with the bound on the length word given.
func decodeBounded(b []byte, maxBody int) (typ RecordType, tick int64, payload []byte, size int, ok bool) {
	if len(b) < recordOverhead {
		return 0, 0, nil, 0, false
	}
	length := binary.BigEndian.Uint32(b)
	if length < 9 || int64(length) > int64(maxBody) {
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
