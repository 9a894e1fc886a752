package tkvwire

import (
	"errors"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkv"
)

// header splits a frame into its parsed header and payload, failing the
// test on any parse error.
func header(t *testing.T, frame []byte, max uint32) (Header, []byte) {
	t.Helper()
	h, err := ParseHeader(frame, max)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if len(frame) != HeaderSize+h.PayloadLen() {
		t.Fatalf("frame length %d, header promises %d", len(frame), HeaderSize+h.PayloadLen())
	}
	return h, frame[HeaderSize:]
}

func TestHeaderRoundTrip(t *testing.T) {
	b := appendHeader(nil, OpGet, FlagBool, StatusCASMismatch, 0xDEADBEEFCAFE, 8)
	if len(b) != HeaderSize {
		t.Fatalf("header size %d, want %d", len(b), HeaderSize)
	}
	h, err := ParseHeader(b, MaxFrame)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if h.Op != OpGet || h.Flags != FlagBool || h.Status != StatusCASMismatch ||
		h.ID != 0xDEADBEEFCAFE || h.PayloadLen() != 8 {
		t.Fatalf("round-trip mismatch: %+v", h)
	}
}

func TestHeaderRejectsShort(t *testing.T) {
	if _, err := ParseHeader(make([]byte, HeaderSize-1), MaxFrame); !errors.Is(err, ErrFrame) {
		t.Fatalf("short header: got %v, want ErrFrame", err)
	}
}

func TestHeaderRejectsOversizedLength(t *testing.T) {
	// An oversized length prefix must be refused before any allocation is
	// sized from it.
	b := le.AppendUint32(nil, MaxFrame+1)
	b = append(b, OpGet, 0, 0, 0)
	b = le.AppendUint64(b, 1)
	if _, err := ParseHeader(b, MaxFrame); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized length: got %v, want ErrFrame", err)
	}
	// The same frame is fine against the larger client-side bound.
	if _, err := ParseHeader(b, MaxRespFrame); err != nil {
		t.Fatalf("length below MaxRespFrame rejected: %v", err)
	}
}

func TestHeaderRejectsLengthBelowMinimum(t *testing.T) {
	b := le.AppendUint32(nil, headerAfterLen-1)
	b = append(b, OpPing, 0, 0, 0)
	b = le.AppendUint64(b, 1)
	if _, err := ParseHeader(b, MaxFrame); !errors.Is(err, ErrFrame) {
		t.Fatalf("undersized length: got %v, want ErrFrame", err)
	}
}

func TestKeyReqRoundTrip(t *testing.T) {
	for _, op := range []byte{OpGet, OpDelete} {
		var frame []byte
		if op == OpGet {
			frame = AppendGetReq(nil, 7, 42)
		} else {
			frame = AppendDeleteReq(nil, 7, 42)
		}
		h, p := header(t, frame, MaxFrame)
		if h.Op != op || h.ID != 7 {
			t.Fatalf("op 0x%02x: header %+v", op, h)
		}
		key, err := ParseKeyReq(p)
		if err != nil || key != 42 {
			t.Fatalf("op 0x%02x: key %d err %v", op, key, err)
		}
	}
	if _, err := ParseKeyReq(make([]byte, 7)); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated key req: %v", err)
	}
}

func TestPutReqRoundTrip(t *testing.T) {
	frame := AppendPutReq(nil, 9, 42, []byte("hello"))
	_, p := header(t, frame, MaxFrame)
	key, val, err := ParsePutReq(p)
	if err != nil || key != 42 || string(val) != "hello" {
		t.Fatalf("put round-trip: key %d val %q err %v", key, val, err)
	}
	// Truncations at every interesting boundary.
	for cut := 0; cut < len(p); cut++ {
		if _, _, err := ParsePutReq(p[:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncated put at %d: %v", cut, err)
		}
	}
	// A lying value length must error, not read out of bounds.
	bad := append([]byte(nil), p...)
	le.PutUint32(bad[8:], uint32(len(p))) // longer than remaining bytes
	if _, _, err := ParsePutReq(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("lying vlen: %v", err)
	}
}

func TestCASReqRoundTrip(t *testing.T) {
	frame := AppendCASReq(nil, 11, 5, []byte("old"), []byte("newer"))
	_, p := header(t, frame, MaxFrame)
	key, old, new_, err := ParseCASReq(p)
	if err != nil || key != 5 || string(old) != "old" || string(new_) != "newer" {
		t.Fatalf("cas round-trip: %d %q %q %v", key, old, new_, err)
	}
	for cut := 0; cut < len(p); cut++ {
		if _, _, _, err := ParseCASReq(p[:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncated cas at %d: %v", cut, err)
		}
	}
}

func TestAddReqRoundTrip(t *testing.T) {
	frame := AppendAddReq(nil, 3, 77, -12)
	_, p := header(t, frame, MaxFrame)
	key, delta, err := ParseAddReq(p)
	if err != nil || key != 77 || delta != -12 {
		t.Fatalf("add round-trip: %d %d %v", key, delta, err)
	}
	if _, _, err := ParseAddReq(p[:15]); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated add: %v", err)
	}
}

func TestMGetReqRoundTrip(t *testing.T) {
	keys := []uint64{1, 1 << 40, 0, 42}
	frame := AppendMGetReq(nil, 1, keys)
	_, p := header(t, frame, MaxFrame)
	got, err := ParseMGetReq(p)
	if err != nil || len(got) != len(keys) {
		t.Fatalf("mget round-trip: %v %v", got, err)
	}
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("mget key %d: got %d want %d", i, got[i], k)
		}
	}
	// A count far beyond the received bytes must error without allocating
	// a count-sized slice.
	lying := append([]byte(nil), p...)
	le.PutUint32(lying, 1<<30)
	if _, err := ParseMGetReq(lying); !errors.Is(err, ErrFrame) {
		t.Fatalf("lying mget count: %v", err)
	}
}

func TestBatchReqRoundTrip(t *testing.T) {
	ops := []tkv.Op{
		{Kind: tkv.OpGet, Key: 1},
		{Kind: tkv.OpPut, Key: 2, Value: "v2"},
		{Kind: tkv.OpDelete, Key: 3},
		{Kind: tkv.OpAdd, Key: 4, Delta: -9},
		{Kind: tkv.OpCAS, Key: 5, Old: "was", Value: "now"},
	}
	frame := AppendBatchReq(nil, 2, ops)
	_, p := header(t, frame, MaxFrame)
	got, err := ParseBatchReq(p)
	if err != nil {
		t.Fatalf("ParseBatchReq: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("batch count %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("batch op %d: got %+v want %+v", i, got[i], ops[i])
		}
	}
	// The kind byte of each op is its wire code: get 0, put 1, delete 2,
	// add 3, cas 4.
	for code, op := range ops {
		_, q := header(t, AppendBatchReq(nil, 2, []tkv.Op{op}), MaxFrame)
		if q[4] != byte(code) {
			t.Fatalf("%+v travels as kind byte %d, want %d", op, q[4], code)
		}
	}
	// Truncations anywhere must error.
	for cut := 4; cut < len(p); cut++ {
		if _, err := ParseBatchReq(p[:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncated batch at %d: %v", cut, err)
		}
	}
	// Lying count: bounded by received bytes.
	lying := append([]byte(nil), p...)
	le.PutUint32(lying, 1<<30)
	if _, err := ParseBatchReq(lying); !errors.Is(err, ErrFrame) {
		t.Fatalf("lying batch count: %v", err)
	}
	// Trailing garbage after the declared ops must error.
	if _, err := ParseBatchReq(append(append([]byte(nil), p...), 0xAB)); !errors.Is(err, ErrFrame) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestBatchUnknownKindSurvivesTheWire(t *testing.T) {
	// An out-of-range kind encodes as its byte and decodes to the same kind,
	// which the store will reject as a user error: the frame itself stays
	// valid.
	frame := AppendBatchReq(nil, 1, []tkv.Op{{Kind: 0xFF, Key: 1}})
	_, p := header(t, frame, MaxFrame)
	if p[4] != 0xFF {
		t.Fatalf("out-of-range kind travels as byte %d", p[4])
	}
	got, err := ParseBatchReq(p)
	if err != nil || len(got) != 1 {
		t.Fatalf("unknown kind: %v %v", got, err)
	}
	if got[0].Kind != 0xFF {
		t.Fatalf("unknown kind decoded to %d", got[0].Kind)
	}
}

func TestGetRespRoundTrip(t *testing.T) {
	frame := AppendGetResp(nil, 8, "value", true)
	h, p := header(t, frame, MaxRespFrame)
	val, found, err := ParseGetResp(h.Flags, p)
	if err != nil || !found || val != "value" {
		t.Fatalf("get resp: %q %v %v", val, found, err)
	}
	frame = AppendGetResp(nil, 8, "", false)
	h, p = header(t, frame, MaxRespFrame)
	if val, found, err = ParseGetResp(h.Flags, p); err != nil || found || val != "" {
		t.Fatalf("miss resp: %q %v %v", val, found, err)
	}
}

func TestResultsRespRoundTrip(t *testing.T) {
	results := []tkv.OpResult{
		{Found: true, Value: "a"},
		{Found: false},
		{Found: true, CASMismatch: true, Value: "actual"},
	}
	frame := AppendResultsResp(nil, OpBatch, 4, StatusCASMismatch, results)
	h, p := header(t, frame, MaxRespFrame)
	if h.Status != StatusCASMismatch {
		t.Fatalf("status %d", h.Status)
	}
	got, err := ParseResultsResp(OpBatch, p)
	if err != nil || len(got) != len(results) {
		t.Fatalf("results resp: %v %v", got, err)
	}
	for i := range results {
		if got[i] != results[i] {
			t.Fatalf("result %d: got %+v want %+v", i, got[i], results[i])
		}
	}
	lying := append([]byte(nil), p...)
	le.PutUint32(lying, 1<<30)
	if _, err := ParseResultsResp(OpBatch, lying); !errors.Is(err, ErrFrame) {
		t.Fatalf("lying results count: %v", err)
	}
}

func TestSnapRespRoundTrip(t *testing.T) {
	snap := map[uint64]string{1: "one", 42: "", 1 << 50: "big-key"}
	frame := AppendSnapResp(nil, 5, snap)
	_, p := header(t, frame, MaxRespFrame)
	got, err := ParseSnapResp(p)
	if err != nil || len(got) != len(snap) {
		t.Fatalf("snap resp: %v %v", got, err)
	}
	for k, v := range snap {
		if got[k] != v {
			t.Fatalf("snap key %d: got %q want %q", k, got[k], v)
		}
	}
	lying := append([]byte(nil), p...)
	le.PutUint64(lying, 1<<40)
	if _, err := ParseSnapResp(lying); !errors.Is(err, ErrFrame) {
		t.Fatalf("lying snap count: %v", err)
	}
}

func TestErrRespRoundTrip(t *testing.T) {
	frame := AppendErrResp(nil, OpAdd, 6, StatusBadRequest, "non-numeric value")
	h, p := header(t, frame, MaxRespFrame)
	if h.Status != StatusBadRequest || string(p) != "non-numeric value" {
		t.Fatalf("err resp: %+v %q", h, p)
	}
}

func TestFramePoolClasses(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4 << 10, 64 << 10, 1 << 20} {
		f := GetFrame(n)
		if cap(f.B) < n {
			t.Fatalf("GetFrame(%d): cap %d", n, cap(f.B))
		}
		if len(f.B) != 0 {
			t.Fatalf("GetFrame(%d): len %d, want 0", n, len(f.B))
		}
		PutFrame(f)
	}
	// An oversized frame is allocated directly and never pooled.
	f := GetFrame(2 << 20)
	if cap(f.B) < 2<<20 {
		t.Fatalf("oversized GetFrame: cap %d", cap(f.B))
	}
	PutFrame(f) // must not panic, must not pin it
}
