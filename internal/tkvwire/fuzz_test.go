package tkvwire

import (
	"bufio"
	"bytes"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkv"
)

// FuzzFrameRoundTrip builds frames from fuzzed operands, re-parses them,
// and demands the originals back. It pins the codec's two invariants:
// encode∘decode is the identity, and every parser either succeeds on
// exactly the bytes it was promised or errors.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(42), []byte("value"), []byte("old"), int64(-3), byte(0))
	f.Add(uint64(0), uint64(0), []byte{}, []byte{}, int64(0), byte(4))
	f.Add(^uint64(0), ^uint64(0), bytes.Repeat([]byte{0xAB}, 300), []byte("x"), int64(1)<<62, byte(2))
	f.Fuzz(func(t *testing.T, id, key uint64, val, old []byte, delta int64, kind byte) {
		if len(val) > 1<<16 || len(old) > 1<<16 {
			return // stay well under MaxFrame; size limits are tested elsewhere
		}

		// put
		frame := AppendPutReq(nil, id, key, val)
		h, err := ParseHeader(frame, MaxFrame)
		if err != nil {
			t.Fatalf("put header: %v", err)
		}
		if h.ID != id || h.Op != OpPut {
			t.Fatalf("put header mismatch: %+v", h)
		}
		k, v, err := ParsePutReq(frame[HeaderSize:])
		if err != nil || k != key || !bytes.Equal(v, val) {
			t.Fatalf("put round-trip: %d %q %v", k, v, err)
		}

		// cas
		frame = AppendCASReq(nil, id, key, old, val)
		k, o, n, err := ParseCASReq(frame[HeaderSize:])
		if err != nil || k != key || !bytes.Equal(o, old) || !bytes.Equal(n, val) {
			t.Fatalf("cas round-trip: %d %q %q %v", k, o, n, err)
		}

		// add
		frame = AppendAddReq(nil, id, key, delta)
		k, d, err := ParseAddReq(frame[HeaderSize:])
		if err != nil || k != key || d != delta {
			t.Fatalf("add round-trip: %d %d %v", k, d, err)
		}

		// batch with one op of the fuzzed kind byte, out-of-range ones too:
		// the codec carries the byte, and validation is the store's
		op := tkv.Op{Kind: tkv.OpKind(kind), Key: key, Value: string(val), Old: string(old), Delta: delta}
		frame = AppendBatchReq(nil, id, []tkv.Op{op})
		ops, err := ParseBatchReq(frame[HeaderSize:])
		if err != nil || len(ops) != 1 || ops[0] != op {
			t.Fatalf("batch round-trip: %+v %v", ops, err)
		}

		// get response
		frame = AppendGetResp(nil, id, string(val), delta%2 == 0)
		h, _ = ParseHeader(frame, MaxRespFrame)
		gv, found, err := ParseGetResp(h.Flags, frame[HeaderSize:])
		if err != nil || gv != string(val) || found != (delta%2 == 0) {
			t.Fatalf("get resp round-trip: %q %v %v", gv, found, err)
		}

		// results response
		results := []tkv.OpResult{{Found: true, Value: string(val)}, {CASMismatch: true, Value: string(old)}}
		frame = AppendResultsResp(nil, OpBatch, id, StatusOK, results)
		rs, err := ParseResultsResp(OpBatch, frame[HeaderSize:])
		if err != nil || len(rs) != 2 || rs[0] != results[0] || rs[1] != results[1] {
			t.Fatalf("results round-trip: %+v %v", rs, err)
		}

		// snapshot response
		snap := map[uint64]string{key: string(val), key + 1: string(old)}
		frame = AppendSnapResp(nil, id, snap)
		sm, err := ParseSnapResp(frame[HeaderSize:])
		if err != nil || len(sm) != len(snap) || sm[key] != snap[key] {
			t.Fatalf("snap round-trip: %+v %v", sm, err)
		}
	})
}

// FuzzServerDecode throws arbitrary bytes at the entire server-side decode
// surface: the read loop's cohort scan, the header parser and every
// request-payload parser. Nothing may panic, the scan may neither consume
// nor cover more than is buffered, and every output slice must be bounded
// by the bytes actually received — a lying count or length field must
// produce an error, not an allocation.
func FuzzServerDecode(f *testing.F) {
	st, err := tkv.Open(tkv.Config{Shards: 2, Buckets: 16})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st)
	f.Add([]byte{})
	f.Add(AppendGetReq(nil, 1, 42))
	f.Add(AppendGetReq(AppendGetReq(nil, 1, 42), 2, 43))
	f.Add(AppendPutReq(nil, 2, 42, []byte("hello")))
	f.Add(AppendCASReq(nil, 3, 1, []byte("a"), []byte("b")))
	f.Add(AppendMGetReq(nil, 4, []uint64{1, 2, 3}))
	f.Add(AppendBatchReq(nil, 5, []tkv.Op{{Kind: tkv.OpPut, Key: 1, Value: "v"}}))
	// Adversarial seeds: lying lengths and counts.
	f.Add(le.AppendUint32(nil, 0xFFFFFFFF))
	lying := AppendMGetReq(nil, 6, []uint64{1})
	le.PutUint32(lying[HeaderSize:], 1<<30)
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && len(data) <= 64<<10 {
			c := &conn{srv: srv, br: bufio.NewReaderSize(bytes.NewReader(data), 64<<10)}
			c.br.Peek(1)
			c.warmCohort()
			if c.window < 0 || c.window > len(data) || c.br.Buffered() != len(data) {
				t.Fatalf("scan of %d bytes: window %d, %d left buffered", len(data), c.window, c.br.Buffered())
			}
		}
		h, err := ParseHeader(data, MaxFrame)
		if err != nil {
			return // rejected before any payload handling — that's the contract
		}
		payload := data[HeaderSize:]
		// Whatever the header claims, the server only ever hands parsers the
		// bytes it actually read; simulate both the honest and short cases.
		if h.PayloadLen() < len(payload) {
			payload = payload[:h.PayloadLen()]
		}

		if _, err := ParseKeyReq(payload); err == nil && len(payload) != 8 {
			t.Fatalf("ParseKeyReq accepted %d bytes", len(payload))
		}
		if _, v, err := ParsePutReq(payload); err == nil && len(v) > len(payload) {
			t.Fatalf("ParsePutReq value exceeds payload")
		}
		if _, o, n, err := ParseCASReq(payload); err == nil && len(o)+len(n) > len(payload) {
			t.Fatalf("ParseCASReq slices exceed payload")
		}
		_, _, _ = ParseAddReq(payload)
		if keys, err := ParseMGetReq(payload); err == nil && len(keys)*8 > len(payload) {
			t.Fatalf("ParseMGetReq keys (%d) exceed payload (%d bytes)", len(keys), len(payload))
		}
		if ops, err := ParseBatchReq(payload); err == nil && len(ops)*minBatchOp > len(payload)+minBatchOp {
			t.Fatalf("ParseBatchReq ops (%d) exceed payload (%d bytes)", len(ops), len(payload))
		}

		// Client-side parsers must hold the same line against a malicious
		// server.
		_, _, _ = ParseGetResp(h.Flags, payload)
		_, _ = ParseUintResp(h.Op, payload)
		if rs, err := ParseResultsResp(h.Op, payload); err == nil && len(rs)*5 > len(payload)+5 {
			t.Fatalf("ParseResultsResp results exceed payload")
		}
		if sm, err := ParseSnapResp(payload); err == nil && len(sm)*12 > len(payload)+12 {
			t.Fatalf("ParseSnapResp entries exceed payload")
		}
	})
}
