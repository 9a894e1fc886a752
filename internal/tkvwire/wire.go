// Package tkvwire is the binary wire protocol for the tkv store and the
// zero-copy TCP serving loop that speaks it: the serving edge that costs
// microseconds per operation where the HTTP/JSON surface costs tens.
//
// # Frame layout
//
// Every message, in both directions, is one length-prefixed frame with a
// fixed little-endian header:
//
//	offset  size  field
//	0       4     length   uint32: bytes following this field (12 + payload)
//	4       1     opcode
//	5       1     flags    response: bit0 = the op's boolean result
//	6       2     status   uint16: 0 ok; nonzero = error class (responses)
//	8       8     id       uint64: request id, echoed verbatim in the response
//	16      —     payload  fixed-width, opcode-specific
//
// Payload framing is fixed-width throughout — uint64 keys, uint32 byte
// lengths, int64 deltas, no varints — so encode and decode are straight
// loads and stores. Keys and values travel as raw bytes; the server reads
// values zero-copy out of its connection buffer.
//
// # Pipelining
//
// Requests carry ids and responses echo them, so a client may keep many
// requests in flight per connection and match completions by id. Single-key
// operations (get/put/delete/cas/add/ping) are executed inline by the
// connection's read loop and therefore complete in order; multi-key
// operations (mget/batch/len/stats/snap) are handed to their own goroutine
// and may complete out of order with respect to everything behind them.
//
// # Errors
//
// An application-level failure (an unknown batch op kind, a non-numeric add
// target) is a response with a nonzero status and the error message as
// payload; the connection stays usable. A protocol-level violation (a
// length prefix beyond MaxFrame, a truncated payload, an unknown opcode)
// poisons the stream: the server sends one error frame when it still can,
// then closes the connection. It never panics and never allocates in
// proportion to a lying length field.
package tkvwire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// Opcodes. Requests and their responses share the opcode.
const (
	OpPing   = 0x01 // liveness probe; empty payload both ways
	OpGet    = 0x02 // req: key | resp: vlen,val (flags bit0 = found)
	OpPut    = 0x03 // req: key,vlen,val | resp: empty (flags bit0 = created)
	OpDelete = 0x04 // req: key | resp: empty (flags bit0 = deleted)
	OpCAS    = 0x05 // req: key,oldlen,old,newlen,new | resp: empty (bit0 = swapped)
	OpAdd    = 0x06 // req: key,delta | resp: value int64
	OpMGet   = 0x07 // req: n,keys | resp: n results
	OpBatch  = 0x08 // req: n,ops | resp: n results (status 2 on cas mismatch)
	OpLen    = 0x09 // req: empty | resp: uint64 key count (snapshot-consistent)
	OpStats  = 0x0A // req: empty | resp: tkv.Stats as JSON bytes
	OpSnap   = 0x0B // req: empty | resp: n,(key,vlen,val)* consistent cut

	// Handshake and replication family. OpHello negotiates a protocol
	// version and feature bits; the repl opcodes require a completed
	// handshake granting FeatReplication. Clients that never send OpHello
	// keep working with the 0x01–0x0B family unchanged.
	OpHello     = 0x10 // req: version u16, features u64 | resp: version u16, features u64 (granted)
	OpReplSub   = 0x11 // req: streamID u64, nshards u32, lastApplied u64* | stream of repl frames
	OpReplRec   = 0x12 // srv->cli: payload is one tkvlog record, verbatim
	OpReplCut   = 0x13 // srv->cli: shard u32, seq u64, n u32, (key u64, vlen u32, val)*
	OpReplMeta  = 0x14 // srv->cli: streamID u64, nshards u32, heads u64*
	OpReplFence = 0x15 // srv->cli: clean end of stream (primary fenced itself)
)

// Protocol version and feature bits negotiated by OpHello. The version is
// informational (the frame format has not changed since v1); capability
// gating runs on the feature bits, which the server intersects with what
// it actually serves.
const (
	ProtoVersion = 2
	// FeatReplication grants the repl opcode family; the server offers it
	// only when its store carries a replication log.
	FeatReplication = uint64(1) << 0
)

// Response statuses.
const (
	StatusOK          = 0 // success; payload is the op's result
	StatusBadRequest  = 1 // the request was malformed or invalid (tkv.ErrUser)
	StatusCASMismatch = 2 // batch refused whole by a failed cas compare; payload carries results
	StatusInternal    = 3 // engine/server failure
	// StatusBackpressure is explicit admission backpressure
	// (tkv.ErrBackpressure): the server is past its overload knee and
	// shed the request before executing it. Nothing was written; the
	// client should back off and retry.
	StatusBackpressure = 4
	// StatusNotPrimary rejects a write sent to a read-only replica (or a
	// primary fencing itself during shutdown); redirect to the primary.
	StatusNotPrimary = 5
)

// Flag bits (responses).
const (
	// FlagBool is the op's boolean result: found (get), created (put),
	// deleted (delete), swapped (cas). In per-result bytes of mget/batch
	// responses bit0 is found and bit1 is casMismatch.
	FlagBool = 1 << 0

	resFound    = 1 << 0
	resMismatch = 1 << 1
)

// Batch op kinds on the wire (Op.Kind strings are an HTTP/JSON concern).
const (
	KindGet    = 0
	KindPut    = 1
	KindDelete = 2
	KindAdd    = 3
	KindCAS    = 4
)

const (
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 16
	// headerAfterLen is the header bytes covered by the length prefix.
	headerAfterLen = HeaderSize - 4
	// MaxFrame is the largest length-prefix value the server accepts in a
	// request (so the largest request payload is MaxFrame-12). It matches
	// the HTTP surface's request-body bound.
	MaxFrame = 1 << 20
	// MaxRespFrame bounds response frames (snapshots and stats can dwarf
	// any request); clients reject length prefixes beyond it.
	MaxRespFrame = 1 << 26
)

// ErrFrame marks protocol-level violations: bad length prefixes, truncated
// payloads, unknown opcodes. A stream that produced one is poisoned and the
// connection is closed.
var ErrFrame = errors.New("tkvwire: malformed frame")

var le = binary.LittleEndian

// Header is a decoded frame header.
type Header struct {
	Len    uint32 // bytes after the length field: headerAfterLen + payload
	Op     byte
	Flags  byte
	Status uint16
	ID     uint64
}

// PayloadLen returns the payload byte count.
func (h Header) PayloadLen() int { return int(h.Len) - headerAfterLen }

// ParseHeader decodes a HeaderSize-byte header, validating the length
// prefix against max (use MaxFrame server-side, MaxRespFrame client-side).
func ParseHeader(b []byte, max uint32) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short header (%d bytes)", ErrFrame, len(b))
	}
	h := Header{
		Len:    le.Uint32(b),
		Op:     b[4],
		Flags:  b[5],
		Status: le.Uint16(b[6:]),
		ID:     le.Uint64(b[8:]),
	}
	if h.Len < headerAfterLen {
		return h, fmt.Errorf("%w: length %d < %d", ErrFrame, h.Len, headerAfterLen)
	}
	if h.Len > max {
		return h, fmt.Errorf("%w: length %d exceeds limit %d", ErrFrame, h.Len, max)
	}
	return h, nil
}

// appendHeader appends a frame header for a payload of payloadLen bytes.
func appendHeader(b []byte, op, flags byte, status uint16, id uint64, payloadLen int) []byte {
	b = le.AppendUint32(b, uint32(headerAfterLen+payloadLen))
	b = append(b, op, flags)
	b = le.AppendUint16(b, status)
	return le.AppendUint64(b, id)
}

// ---- request encoding (client side) ----

// AppendPingReq appends a ping request frame.
func AppendPingReq(b []byte, id uint64) []byte {
	return appendHeader(b, OpPing, 0, 0, id, 0)
}

// AppendGetReq appends a get request frame.
func AppendGetReq(b []byte, id, key uint64) []byte {
	b = appendHeader(b, OpGet, 0, 0, id, 8)
	return le.AppendUint64(b, key)
}

// AppendPutReq appends a put request frame. The value is copied straight
// into the frame whether the caller holds it as bytes or as a string.
func AppendPutReq[V []byte | string](b []byte, id, key uint64, val V) []byte {
	b = appendHeader(b, OpPut, 0, 0, id, 8+4+len(val))
	b = le.AppendUint64(b, key)
	b = le.AppendUint32(b, uint32(len(val)))
	return append(b, val...)
}

// AppendDeleteReq appends a delete request frame.
func AppendDeleteReq(b []byte, id, key uint64) []byte {
	b = appendHeader(b, OpDelete, 0, 0, id, 8)
	return le.AppendUint64(b, key)
}

// AppendCASReq appends a cas request frame.
func AppendCASReq[V []byte | string](b []byte, id, key uint64, old, new V) []byte {
	b = appendHeader(b, OpCAS, 0, 0, id, 8+4+len(old)+4+len(new))
	b = le.AppendUint64(b, key)
	b = le.AppendUint32(b, uint32(len(old)))
	b = append(b, old...)
	b = le.AppendUint32(b, uint32(len(new)))
	return append(b, new...)
}

// AppendAddReq appends an add request frame.
func AppendAddReq(b []byte, id, key uint64, delta int64) []byte {
	b = appendHeader(b, OpAdd, 0, 0, id, 16)
	b = le.AppendUint64(b, key)
	return le.AppendUint64(b, uint64(delta))
}

// AppendMGetReq appends an mget request frame.
func AppendMGetReq(b []byte, id uint64, keys []uint64) []byte {
	b = appendHeader(b, OpMGet, 0, 0, id, 4+8*len(keys))
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = le.AppendUint64(b, k)
	}
	return b
}

// kindOf maps a tkv op kind string to its wire code.
func kindOf(kind string) (byte, bool) {
	switch kind {
	case tkv.OpGet:
		return KindGet, true
	case tkv.OpPut:
		return KindPut, true
	case tkv.OpDelete:
		return KindDelete, true
	case tkv.OpAdd:
		return KindAdd, true
	case tkv.OpCAS:
		return KindCAS, true
	}
	return 0, false
}

// kindName is the inverse of kindOf.
func kindName(k byte) (string, bool) {
	switch k {
	case KindGet:
		return tkv.OpGet, true
	case KindPut:
		return tkv.OpPut, true
	case KindDelete:
		return tkv.OpDelete, true
	case KindAdd:
		return tkv.OpAdd, true
	case KindCAS:
		return tkv.OpCAS, true
	}
	return "", false
}

// AppendBatchReq appends a batch request frame. Unknown op kind strings
// encode as 0xFF, which the server rejects as a bad request (mirroring the
// HTTP surface's validation rather than failing client-side).
func AppendBatchReq(b []byte, id uint64, ops []tkv.Op) []byte {
	n := 4
	for _, op := range ops {
		n += 1 + 8 + 8 + 4 + len(op.Old) + 4 + len(op.Value)
	}
	b = appendHeader(b, OpBatch, 0, 0, id, n)
	b = le.AppendUint32(b, uint32(len(ops)))
	for _, op := range ops {
		k, ok := kindOf(op.Kind)
		if !ok {
			k = 0xFF
		}
		b = append(b, k)
		b = le.AppendUint64(b, op.Key)
		b = le.AppendUint64(b, uint64(op.Delta))
		b = le.AppendUint32(b, uint32(len(op.Old)))
		b = append(b, op.Old...)
		b = le.AppendUint32(b, uint32(len(op.Value)))
		b = append(b, op.Value...)
	}
	return b
}

// AppendEmptyReq appends a payload-free request frame for op (len, stats,
// snap, ping).
func AppendEmptyReq(b []byte, op byte, id uint64) []byte {
	return appendHeader(b, op, 0, 0, id, 0)
}

// ---- request decoding (server side) ----

// errTruncated is the shared payload-shorter-than-advertised failure.
func errTruncated(op byte) error {
	return fmt.Errorf("%w: truncated payload for opcode 0x%02x", ErrFrame, op)
}

// ParseKeyReq decodes the payload of a get/delete request.
func ParseKeyReq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, errTruncated(OpGet)
	}
	return le.Uint64(p), nil
}

// ParsePutReq decodes a put payload. The value aliases p: zero-copy, valid
// only until the connection buffer is reused.
func ParsePutReq(p []byte) (key uint64, val []byte, err error) {
	if len(p) < 12 {
		return 0, nil, errTruncated(OpPut)
	}
	key = le.Uint64(p)
	n := int(le.Uint32(p[8:]))
	if len(p) != 12+n {
		return 0, nil, errTruncated(OpPut)
	}
	return key, p[12 : 12+n], nil
}

// ParseCASReq decodes a cas payload; old and new alias p.
func ParseCASReq(p []byte) (key uint64, old, new []byte, err error) {
	if len(p) < 16 {
		return 0, nil, nil, errTruncated(OpCAS)
	}
	key = le.Uint64(p)
	oldLen := int(le.Uint32(p[8:]))
	if len(p) < 12+oldLen+4 {
		return 0, nil, nil, errTruncated(OpCAS)
	}
	old = p[12 : 12+oldLen]
	rest := p[12+oldLen:]
	newLen := int(le.Uint32(rest))
	if len(rest) != 4+newLen {
		return 0, nil, nil, errTruncated(OpCAS)
	}
	return key, old, rest[4 : 4+newLen], nil
}

// ParseAddReq decodes an add payload.
func ParseAddReq(p []byte) (key uint64, delta int64, err error) {
	if len(p) != 16 {
		return 0, 0, errTruncated(OpAdd)
	}
	return le.Uint64(p), int64(le.Uint64(p[8:])), nil
}

// ParseMGetReq decodes an mget payload into a fresh key slice. The declared
// count must match the payload size exactly, so a lying count cannot force
// an allocation beyond the bytes actually received.
func ParseMGetReq(p []byte) ([]uint64, error) {
	if len(p) < 4 {
		return nil, errTruncated(OpMGet)
	}
	n := int(le.Uint32(p))
	if len(p) != 4+8*n {
		return nil, errTruncated(OpMGet)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = le.Uint64(p[4+8*i:])
	}
	return keys, nil
}

// minBatchOp is the encoded size of the smallest batch op (empty old/value).
const minBatchOp = 1 + 8 + 8 + 4 + 4

// ParseBatchReq decodes a batch payload into tkv ops. Strings are copied
// (the ops outlive the connection buffer on the async execution path). The
// op-slice capacity is bounded by the bytes actually received, never by the
// declared count alone.
func ParseBatchReq(p []byte) ([]tkv.Op, error) {
	if len(p) < 4 {
		return nil, errTruncated(OpBatch)
	}
	n := int(le.Uint32(p))
	if n > (len(p)-4)/minBatchOp {
		return nil, errTruncated(OpBatch)
	}
	ops := make([]tkv.Op, 0, n)
	rest := p[4:]
	for i := 0; i < n; i++ {
		if len(rest) < minBatchOp {
			return nil, errTruncated(OpBatch)
		}
		kind, ok := kindName(rest[0])
		if !ok {
			// Well-formed framing, invalid content: surfaced as a bad
			// request by the server, not a connection error — but the
			// frame must still parse, so keep a placeholder kind.
			kind = fmt.Sprintf("wire-kind-0x%02x", rest[0])
		}
		op := tkv.Op{Kind: kind, Key: le.Uint64(rest[1:]), Delta: int64(le.Uint64(rest[9:]))}
		rest = rest[17:]
		oldLen := int(le.Uint32(rest))
		if len(rest) < 4+oldLen+4 {
			return nil, errTruncated(OpBatch)
		}
		op.Old = string(rest[4 : 4+oldLen])
		rest = rest[4+oldLen:]
		valLen := int(le.Uint32(rest))
		if len(rest) < 4+valLen {
			return nil, errTruncated(OpBatch)
		}
		op.Value = string(rest[4 : 4+valLen])
		rest = rest[4+valLen:]
		ops = append(ops, op)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch ops", ErrFrame, len(rest))
	}
	return ops, nil
}

// ---- response encoding (server side) ----

// AppendGetResp appends a get response.
func AppendGetResp(b []byte, id uint64, val string, found bool) []byte {
	var flags byte
	if found {
		flags = FlagBool
	}
	b = appendHeader(b, OpGet, flags, StatusOK, id, 4+len(val))
	b = le.AppendUint32(b, uint32(len(val)))
	return append(b, val...)
}

// AppendBoolResp appends an empty-payload response whose result is the
// flags bit (put/delete/cas, and ping with result=false).
func AppendBoolResp(b []byte, op byte, id uint64, result bool) []byte {
	var flags byte
	if result {
		flags = FlagBool
	}
	return appendHeader(b, op, flags, StatusOK, id, 0)
}

// AppendAddResp appends an add response carrying the new counter value.
func AppendAddResp(b []byte, id uint64, val int64) []byte {
	b = appendHeader(b, OpAdd, 0, StatusOK, id, 8)
	return le.AppendUint64(b, uint64(val))
}

// AppendUintResp appends a len response.
func AppendUintResp(b []byte, op byte, id, val uint64) []byte {
	b = appendHeader(b, op, 0, StatusOK, id, 8)
	return le.AppendUint64(b, val)
}

// AppendResultsResp appends an mget/batch response: status StatusOK for an
// accepted run, StatusCASMismatch for a batch refused whole (the results
// then describe the failing op, exactly like the HTTP 409 body).
func AppendResultsResp(b []byte, op byte, id uint64, status uint16, results []tkv.OpResult) []byte {
	n := 4
	for _, r := range results {
		n += 1 + 4 + len(r.Value)
	}
	b = appendHeader(b, op, 0, status, id, n)
	b = le.AppendUint32(b, uint32(len(results)))
	for _, r := range results {
		var f byte
		if r.Found {
			f |= resFound
		}
		if r.CASMismatch {
			f |= resMismatch
		}
		b = append(b, f)
		b = le.AppendUint32(b, uint32(len(r.Value)))
		b = append(b, r.Value...)
	}
	return b
}

// AppendBytesResp appends a raw-bytes response (stats JSON).
func AppendBytesResp(b []byte, op byte, id uint64, payload []byte) []byte {
	b = appendHeader(b, op, 0, StatusOK, id, len(payload))
	return append(b, payload...)
}

// AppendSnapResp appends a snapshot response.
func AppendSnapResp(b []byte, id uint64, snap map[uint64]string) []byte {
	n := 8
	for _, v := range snap {
		n += 8 + 4 + len(v)
	}
	b = appendHeader(b, OpSnap, 0, StatusOK, id, n)
	b = le.AppendUint64(b, uint64(len(snap)))
	for k, v := range snap {
		b = le.AppendUint64(b, k)
		b = le.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return b
}

// AppendErrResp appends an error response: nonzero status, message payload.
func AppendErrResp(b []byte, op byte, id uint64, status uint16, msg string) []byte {
	b = appendHeader(b, op, 0, status, id, len(msg))
	return append(b, msg...)
}

// ---- response decoding (client side) ----

// ParseGetResp decodes a get response payload.
func ParseGetResp(flags byte, p []byte) (val string, found bool, err error) {
	if len(p) < 4 {
		return "", false, errTruncated(OpGet)
	}
	n := int(le.Uint32(p))
	if len(p) != 4+n {
		return "", false, errTruncated(OpGet)
	}
	return string(p[4 : 4+n]), flags&FlagBool != 0, nil
}

// ParseUintResp decodes an add/len response payload.
func ParseUintResp(op byte, p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, errTruncated(op)
	}
	return le.Uint64(p), nil
}

// ParseResultsResp decodes an mget/batch response payload.
func ParseResultsResp(op byte, p []byte) ([]tkv.OpResult, error) {
	if len(p) < 4 {
		return nil, errTruncated(op)
	}
	n := int(le.Uint32(p))
	if n > (len(p)-4)/5 {
		return nil, errTruncated(op)
	}
	out := make([]tkv.OpResult, 0, n)
	rest := p[4:]
	for i := 0; i < n; i++ {
		if len(rest) < 5 {
			return nil, errTruncated(op)
		}
		f := rest[0]
		vlen := int(le.Uint32(rest[1:]))
		if len(rest) < 5+vlen {
			return nil, errTruncated(op)
		}
		out = append(out, tkv.OpResult{
			Found:       f&resFound != 0,
			CASMismatch: f&resMismatch != 0,
			Value:       string(rest[5 : 5+vlen]),
		})
		rest = rest[5+vlen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after results", ErrFrame, len(rest))
	}
	return out, nil
}

// ---- handshake and replication codecs ----

// AppendHelloReq appends a handshake request declaring the client's
// protocol version and requested feature bits.
func AppendHelloReq(b []byte, id uint64, version uint16, features uint64) []byte {
	b = appendHeader(b, OpHello, 0, 0, id, 2+8)
	b = le.AppendUint16(b, version)
	return le.AppendUint64(b, features)
}

// AppendHelloResp appends the handshake response: the server's version
// and the granted feature bits (requested ∩ served).
func AppendHelloResp(b []byte, id uint64, version uint16, features uint64) []byte {
	b = appendHeader(b, OpHello, 0, StatusOK, id, 2+8)
	b = le.AppendUint16(b, version)
	return le.AppendUint64(b, features)
}

// ParseHello decodes a handshake payload (same shape both directions).
func ParseHello(p []byte) (version uint16, features uint64, err error) {
	if len(p) != 10 {
		return 0, 0, errTruncated(OpHello)
	}
	return le.Uint16(p), le.Uint64(p[2:]), nil
}

// AppendReplSubReq appends a replication subscribe request: the stream
// identity the follower last synced against (0 on first contact) and its
// per-shard applied watermarks. The shard count must match the server's.
func AppendReplSubReq(b []byte, id, streamID uint64, applied []uint64) []byte {
	b = appendHeader(b, OpReplSub, 0, 0, id, 8+4+8*len(applied))
	b = le.AppendUint64(b, streamID)
	b = le.AppendUint32(b, uint32(len(applied)))
	for _, a := range applied {
		b = le.AppendUint64(b, a)
	}
	return b
}

// ParseReplSubReq decodes a replication subscribe payload. The declared
// shard count must match the payload size exactly.
func ParseReplSubReq(p []byte) (streamID uint64, applied []uint64, err error) {
	if len(p) < 12 {
		return 0, nil, errTruncated(OpReplSub)
	}
	streamID = le.Uint64(p)
	n := int(le.Uint32(p[8:]))
	if len(p) != 12+8*n {
		return 0, nil, errTruncated(OpReplSub)
	}
	applied = make([]uint64, n)
	for i := range applied {
		applied[i] = le.Uint64(p[12+8*i:])
	}
	return streamID, applied, nil
}

// AppendReplMeta appends a stream metadata frame: the primary's stream
// identity and per-shard head sequences. Sent first on every
// subscription (the follower learns the streamID to reconnect with) and
// periodically as a heartbeat carrying fresh heads for lag accounting.
func AppendReplMeta(b []byte, id, streamID uint64, heads []uint64) []byte {
	b = appendHeader(b, OpReplMeta, 0, StatusOK, id, 8+4+8*len(heads))
	b = le.AppendUint64(b, streamID)
	b = le.AppendUint32(b, uint32(len(heads)))
	for _, h := range heads {
		b = le.AppendUint64(b, h)
	}
	return b
}

// ParseReplMeta decodes a stream metadata payload.
func ParseReplMeta(p []byte) (streamID uint64, heads []uint64, err error) {
	if len(p) < 12 {
		return 0, nil, errTruncated(OpReplMeta)
	}
	streamID = le.Uint64(p)
	n := int(le.Uint32(p[8:]))
	if len(p) != 12+8*n {
		return 0, nil, errTruncated(OpReplMeta)
	}
	heads = make([]uint64, n)
	for i := range heads {
		heads[i] = le.Uint64(p[12+8*i:])
	}
	return streamID, heads, nil
}

// AppendReplCut appends a shard snapshot-resync frame: the shard, the
// sequence watermark the cut reflects, and every pair of the shard.
func AppendReplCut(b []byte, id uint64, shard uint32, seq uint64, pairs []tkvlog.Entry) []byte {
	n := 4 + 8 + 4
	for _, p := range pairs {
		n += 8 + 4 + len(p.Val)
	}
	b = appendHeader(b, OpReplCut, 0, StatusOK, id, n)
	b = le.AppendUint32(b, shard)
	b = le.AppendUint64(b, seq)
	b = le.AppendUint32(b, uint32(len(pairs)))
	for _, p := range pairs {
		b = le.AppendUint64(b, p.Key)
		b = le.AppendUint32(b, uint32(len(p.Val)))
		b = append(b, p.Val...)
	}
	return b
}

// ParseReplCut decodes a shard snapshot-resync payload. The pair count is
// validated against the bytes received before any allocation sized by it.
func ParseReplCut(p []byte) (shard uint32, seq uint64, pairs []tkvlog.Entry, err error) {
	if len(p) < 16 {
		return 0, 0, nil, errTruncated(OpReplCut)
	}
	shard = le.Uint32(p)
	seq = le.Uint64(p[4:])
	n := int(le.Uint32(p[12:]))
	rest := p[16:]
	if n > len(rest)/12 {
		return 0, 0, nil, errTruncated(OpReplCut)
	}
	pairs = make([]tkvlog.Entry, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 12 {
			return 0, 0, nil, errTruncated(OpReplCut)
		}
		k := le.Uint64(rest)
		vlen := int(le.Uint32(rest[8:]))
		if len(rest) < 12+vlen {
			return 0, 0, nil, errTruncated(OpReplCut)
		}
		pairs = append(pairs, tkvlog.Entry{Key: k, Val: string(rest[12 : 12+vlen])})
		rest = rest[12+vlen:]
	}
	if len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes after cut pairs", ErrFrame, len(rest))
	}
	return shard, seq, pairs, nil
}

// AppendReplRec appends a record frame. The payload is one tkvlog record,
// byte-for-byte what a WAL would append — the shared log format.
func AppendReplRec(b []byte, id uint64, rec *tkvlog.Record) []byte {
	b = appendHeader(b, OpReplRec, 0, StatusOK, id, rec.Size())
	return rec.Append(b)
}

// AppendReplFence appends a stream fence frame: the primary has stopped
// writes and shipped everything; the stream ends cleanly.
func AppendReplFence(b []byte, id uint64) []byte {
	return appendHeader(b, OpReplFence, 0, StatusOK, id, 0)
}

// ParseSnapResp decodes a snapshot response payload.
func ParseSnapResp(p []byte) (map[uint64]string, error) {
	if len(p) < 8 {
		return nil, errTruncated(OpSnap)
	}
	n := int(le.Uint64(p))
	if n > (len(p)-8)/12 {
		return nil, errTruncated(OpSnap)
	}
	out := make(map[uint64]string, n)
	rest := p[8:]
	for i := 0; i < n; i++ {
		if len(rest) < 12 {
			return nil, errTruncated(OpSnap)
		}
		k := le.Uint64(rest)
		vlen := int(le.Uint32(rest[8:]))
		if len(rest) < 12+vlen {
			return nil, errTruncated(OpSnap)
		}
		out[k] = string(rest[12 : 12+vlen])
		rest = rest[12+vlen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrFrame, len(rest))
	}
	return out, nil
}
