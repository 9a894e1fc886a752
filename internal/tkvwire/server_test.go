package tkvwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"
	"weak"

	"github.com/shrink-tm/shrink/internal/tkv"
)

// startServer brings up a store and a wire server on a loopback listener,
// returning the dial address. Everything is torn down with the test.
func startServer(t testing.TB) string {
	return startServerWith(t, tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128})
}

// startServerWith is startServer with a caller-chosen store config.
func startServerWith(t testing.TB, cfg tkv.Config) string {
	t.Helper()
	addr, _ := serveStore(t, cfg)
	return addr
}

// serveStore is startServerWith that also hands back the store.
func serveStore(t testing.TB, cfg tkv.Config) (string, *tkv.Store) {
	t.Helper()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatalf("tkv.Open: %v", err)
	}
	t.Cleanup(st.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String(), st
}

func dialTest(t testing.TB, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerEndToEnd(t *testing.T) {
	addr := startServer(t)
	c := dialTest(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if created, err := c.Put(1, "one"); err != nil || !created {
		t.Fatalf("put: %v %v", created, err)
	}
	if created, err := c.Put(1, "uno"); err != nil || created {
		t.Fatalf("overwrite put: %v %v", created, err)
	}
	if val, found, err := c.Get(1); err != nil || !found || val != "uno" {
		t.Fatalf("get: %q %v %v", val, found, err)
	}
	if _, found, err := c.Get(99); err != nil || found {
		t.Fatalf("get miss: %v %v", found, err)
	}
	if swapped, err := c.CAS(1, "uno", "ein"); err != nil || !swapped {
		t.Fatalf("cas: %v %v", swapped, err)
	}
	if swapped, err := c.CAS(1, "uno", "nope"); err != nil || swapped {
		t.Fatalf("cas stale: %v %v", swapped, err)
	}
	if n, err := c.Add(7, 5); err != nil || n != 5 {
		t.Fatalf("add: %d %v", n, err)
	}
	if n, err := c.Add(7, -2); err != nil || n != 3 {
		t.Fatalf("add down: %d %v", n, err)
	}
	if deleted, err := c.Delete(1); err != nil || !deleted {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	if deleted, err := c.Delete(1); err != nil || deleted {
		t.Fatalf("re-delete: %v %v", deleted, err)
	}

	// Adding to a non-numeric value is an application error; the
	// connection must survive it.
	if _, err := c.Put(8, "not-a-number"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := c.Add(8, 1); !errors.Is(err, tkv.ErrUser) {
		t.Fatalf("add to string: %v, want ErrUser", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after app error: %v", err)
	}

	// Multi-key surface.
	if _, err := c.Put(10, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(11, "b"); err != nil {
		t.Fatal(err)
	}
	res, err := c.MGet([]uint64{10, 11, 12})
	if err != nil || len(res) != 3 {
		t.Fatalf("mget: %v %v", res, err)
	}
	if !res[0].Found || res[0].Value != "a" || !res[1].Found || res[1].Value != "b" || res[2].Found {
		t.Fatalf("mget results: %+v", res)
	}

	res, err = c.Batch([]tkv.Op{
		{Kind: tkv.OpPut, Key: 20, Value: "x"},
		{Kind: tkv.OpAdd, Key: 21, Delta: 4},
		{Kind: tkv.OpGet, Key: 20},
	})
	if err != nil || len(res) != 3 {
		t.Fatalf("batch: %v %v", res, err)
	}
	if res[1].Value != "4" || !res[2].Found || res[2].Value != "x" {
		t.Fatalf("batch results: %+v", res)
	}

	// A failed cas compare refuses the whole batch, reports which op, and
	// maps to tkv.ErrCASMismatch through errors.Is.
	res, err = c.Batch([]tkv.Op{
		{Kind: tkv.OpPut, Key: 30, Value: "never-written"},
		{Kind: tkv.OpCAS, Key: 20, Old: "wrong", Value: "y"},
	})
	if !errors.Is(err, tkv.ErrCASMismatch) {
		t.Fatalf("batch cas mismatch: %v", err)
	}
	if len(res) != 2 || !res[1].CASMismatch || res[1].Value != "x" {
		t.Fatalf("mismatch results: %+v", res)
	}
	if val, found, _ := c.Get(30); found {
		t.Fatalf("refused batch wrote key 30 = %q", val)
	}
	// A matching one swaps.
	if _, err := c.Batch([]tkv.Op{{Kind: tkv.OpCAS, Key: 20, Old: "x", Value: "y"}}); err != nil {
		t.Fatalf("matching batch cas: %v", err)
	}
	if val, _, _ := c.Get(20); val != "y" {
		t.Fatalf("batch cas did not swap: %q", val)
	}

	// An unknown batch kind is a bad request, not a dead connection.
	if _, err := c.Batch([]tkv.Op{{Kind: 0xFF, Key: 1}}); !errors.Is(err, tkv.ErrUser) {
		t.Fatalf("unknown kind: %v, want ErrUser", err)
	}

	// Keys near the top of uint64 survive the snapshot.
	high := []uint64{1 << 62, 1<<64 - 1}
	for _, k := range high {
		if _, err := c.Put(k, strconv.FormatUint(k, 16)); err != nil {
			t.Fatal(err)
		}
	}

	n, err := c.Len()
	if err != nil || n == 0 {
		t.Fatalf("len: %d %v", n, err)
	}
	snap, err := c.Snapshot()
	if err != nil || len(snap) != n {
		t.Fatalf("snapshot: %d entries (len %d), %v", len(snap), n, err)
	}
	if snap[20] != "y" {
		t.Fatalf("snapshot[20] = %q", snap[20])
	}
	for _, k := range high {
		if snap[k] != strconv.FormatUint(k, 16) {
			t.Fatalf("snapshot[%d] = %q", k, snap[k])
		}
	}

	// Every call above landed on the store's counters exactly once, the
	// refused ones included (the failed add, both refused batches); Len
	// counts as a snapshot.
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	want := tkv.OpCounts{Gets: 4, Puts: 7, Deletes: 2, CAS: 2, CASMisses: 1, Adds: 3,
		Batches: 4, BatchOps: 7, BatchCASMisses: 1, MGets: 1, MGetKeys: 3, Snapshots: 2}
	if stats.Ops != want {
		t.Fatalf("op counters:\n got %+v\nwant %+v", stats.Ops, want)
	}
	if stats.Commits == 0 {
		t.Fatalf("no commits: %+v", stats)
	}
}

// TestDroppedStoreIsCollected: a store served over the wire — get, put, add,
// mget and batch, each through the serving path's pooled state — is garbage
// at the next collection once its server is closed and both are dropped.
func TestDroppedStoreIsCollected(t *testing.T) {
	st, srv := serveOnceAndDrop(t)
	runtime.GC()
	if st.Value() != nil || srv.Value() != nil {
		t.Fatalf("one collection after the last reference went: store alive %v, server alive %v",
			st.Value() != nil, srv.Value() != nil)
	}
}

// serveOnceAndDrop serves one round trip of every data verb family from a
// fresh store, closes the client, the server and the store, and keeps
// nothing but weak pointers to the store and the server. (Not
// startServerWith: its cleanups hold both until the test ends.)
func serveOnceAndDrop(t *testing.T) (weak.Pointer[tkv.Store], weak.Pointer[Server]) {
	st, err := tkv.Open(tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(1, "one"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MGet([]uint64{1, 2, 3, 1000, 123456}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Batch([]tkv.Op{
		{Kind: tkv.OpPut, Key: 20, Value: "x"},
		{Kind: tkv.OpAdd, Key: 123456, Delta: 4},
		{Kind: tkv.OpGet, Key: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	st.Close()
	return weak.Make(st), weak.Make(srv)
}

func TestServerPipelinedConcurrentCalls(t *testing.T) {
	addr := startServer(t)
	c := dialTest(t, addr)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every call has its own value: a response matched to the
				// wrong call, or arriving before its call is registered,
				// shows as a foreign value or a dead connection.
				key := uint64(w*perWorker + i)
				want := strconv.FormatUint(key, 10)
				if _, err := c.Put(key, want); err != nil {
					t.Errorf("put %d: %v", key, err)
					return
				}
				if val, found, err := c.Get(key); err != nil || !found || val != want {
					t.Errorf("get %d: %q %v %v", key, val, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, err := c.Len(); err != nil || n != workers*perWorker {
		t.Fatalf("len after pipelined load: %d %v", n, err)
	}
}

// rawDial opens a plain TCP connection for hand-crafted frames.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc
}

// readFrame reads one response frame from a raw connection.
func readFrame(t *testing.T, nc net.Conn) (Header, []byte) {
	t.Helper()
	hdr := make([]byte, HeaderSize)
	if _, err := io.ReadFull(nc, hdr); err != nil {
		t.Fatalf("read header: %v", err)
	}
	h, err := ParseHeader(hdr, MaxRespFrame)
	if err != nil {
		t.Fatalf("parse header: %v", err)
	}
	p := make([]byte, h.PayloadLen())
	if _, err := io.ReadFull(nc, p); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return h, p
}

// expectClosed asserts the server closes the connection (EOF on read).
func expectClosed(t *testing.T, nc net.Conn) {
	t.Helper()
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatalf("connection still open after protocol violation")
	}
}

// An add that overflows int64 is an application error like a non-numeric
// one: StatusBadRequest, nothing stored, the connection kept.
func TestServerAddOverflowIsBadRequest(t *testing.T) {
	c := dialTest(t, startServer(t))
	const maxVal = "9223372036854775807"
	if _, err := c.Put(9, maxVal); err != nil {
		t.Fatalf("put: %v", err)
	}
	var se *StatusError
	if _, err := c.Add(9, 1); !errors.As(err, &se) || se.Status != StatusBadRequest {
		t.Fatalf("add past int64: %v, want StatusBadRequest", err)
	}
	if v, _, err := c.Get(9); err != nil || v != maxVal {
		t.Fatalf("after the overflowing add: %q %v, want %q", v, err, maxVal)
	}
}

func TestServerRejectsOversizedLengthPrefix(t *testing.T) {
	addr := startServer(t)
	nc := rawDial(t, addr)
	frame := le.AppendUint32(nil, MaxFrame+1)
	frame = append(frame, OpPut, 0, 0, 0)
	frame = le.AppendUint64(frame, 77)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, _ := readFrame(t, nc)
	if h.Status != StatusBadRequest || h.ID != 77 {
		t.Fatalf("oversized prefix response: %+v", h)
	}
	expectClosed(t, nc)
}

func TestServerRejectsUnknownOpcode(t *testing.T) {
	addr := startServer(t)
	nc := rawDial(t, addr)
	frame := appendHeader(nil, 0xEE, 0, 0, 5, 0)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, p := readFrame(t, nc)
	if h.Status != StatusBadRequest || h.ID != 5 {
		t.Fatalf("unknown opcode response: %+v %q", h, p)
	}
	expectClosed(t, nc)
}

func TestServerRejectsTruncatedPayload(t *testing.T) {
	addr := startServer(t)
	nc := rawDial(t, addr)
	// A put frame whose inner value length disagrees with the frame length.
	frame := appendHeader(nil, OpPut, 0, 0, 9, 12)
	frame = le.AppendUint64(frame, 1)
	frame = le.AppendUint32(frame, 500) // claims 500 value bytes, sends none
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, _ := readFrame(t, nc)
	if h.Status != StatusBadRequest || h.ID != 9 {
		t.Fatalf("truncated payload response: %+v", h)
	}
	expectClosed(t, nc)
}

func TestServerSurvivesMidFrameDisconnect(t *testing.T) {
	addr := startServer(t)
	nc := rawDial(t, addr)
	// Header promising a payload that never arrives, then hang up.
	frame := appendHeader(nil, OpPut, 0, 0, 1, 100)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.Close()
	// The server must shrug this off; a fresh connection works.
	c := dialTest(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after mid-frame disconnect: %v", err)
	}
}

// wireSteadyState drives count rounds of a put and then gets, a cohort of
// get frames written at once, over a raw connection with prebuilt frames,
// returning only transport errors. The server echoes ids blindly, so
// resending identical frames is legal.
func wireSteadyState(nc net.Conn, gets []byte, putFrame []byte, resp []byte, count int) error {
	for i := 0; i < count; i++ {
		if _, err := nc.Write(putFrame); err != nil {
			return err
		}
		if _, err := io.ReadFull(nc, resp[:HeaderSize]); err != nil {
			return err
		}
		if _, err := nc.Write(gets); err != nil {
			return err
		}
		for range len(gets) / (HeaderSize + 8) {
			if _, err := io.ReadFull(nc, resp[:HeaderSize]); err != nil {
				return err
			}
			h, err := ParseHeader(resp[:HeaderSize], MaxRespFrame)
			if err != nil {
				return err
			}
			if _, err := io.ReadFull(nc, resp[HeaderSize:HeaderSize+h.PayloadLen()]); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestWireGetPutZeroAlloc is the alloc gate for the serving path: after
// warm-up, a put and a get, or a put and a pipelined cohort of eight gets
// (which the read loop warms before running), must not allocate on the
// server side. testing.AllocsPerRun only counts the calling goroutine, so
// this measures process-wide Mallocs around a raw-frame loop with GC parked
// (the client side of the loop is itself allocation-free).
func TestWireGetPutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per access")
	}
	for _, cohort := range []int{1, 8} {
		t.Run(fmt.Sprintf("gets=%d", cohort), func(t *testing.T) {
			addr, st := serveStore(t, tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128})
			nc := rawDial(t, addr)

			var gets []byte
			for i := range cohort {
				gets = AppendGetReq(gets, uint64(i), 42+uint64(i))
			}
			putFrame := AppendPutReq(nil, 100, 42, []byte("v0"))
			resp := make([]byte, 4096)

			// Warm-up: populate the frame pools, the store's op-slot pools
			// and the connection's intern cache.
			if err := wireSteadyState(nc, gets, putFrame, resp, 2000); err != nil {
				t.Fatalf("warm-up: %v", err)
			}

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			runtime.GC()

			const rounds = 2000
			ops := rounds * (1 + cohort)
			warmed := st.Stats().Ops.Warmed
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := wireSteadyState(nc, gets, putFrame, resp, rounds); err != nil {
				t.Fatalf("measured run: %v", err)
			}
			runtime.ReadMemStats(&after)
			warmed = st.Stats().Ops.Warmed - warmed

			perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
			t.Logf("server get/put path: %.4f allocs/op (%d mallocs over %d ops), %d gets warmed",
				perOp, after.Mallocs-before.Mallocs, ops, warmed)
			// Zero per-request allocation, with a whisker of slack for
			// runtime background noise (timers, netpoll bookkeeping).
			if perOp > 0.05 {
				t.Fatalf("get/put serving path allocates: %.4f allocs/op", perOp)
			}
			// A cohort warms when the server reads it in one piece, which a
			// loopback write of it nearly always is.
			if cohort > 1 && warmed == 0 {
				t.Fatalf("no get of %d cohorts was warmed", rounds)
			}
		})
	}
}

// TestCohortScan: the read loop's scan of what is buffered covers the next
// tkv.WarmMax complete frames at most, stops at a frame that is incomplete or
// whose length is below a header's, and warms the gets among what it
// covered when there are two or more. Nothing it scans is consumed.
func TestCohortScan(t *testing.T) {
	st, err := tkv.Open(tkv.Config{Shards: 4, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := uint64(0); k < 32; k++ {
		if _, err := st.Put(k, strconv.FormatUint(k, 10)); err != nil {
			t.Fatal(err)
		}
	}
	gets := func(keys ...uint64) []byte {
		var b []byte
		for _, k := range keys {
			b = AppendGetReq(b, k, k)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const g = HeaderSize + 8 // a get frame
	put := AppendPutReq(nil, 50, 3, "v")
	add := AppendAddReq(nil, 51, 4, 1)
	shortKey := appendHeader(nil, OpGet, 0, 0, 52, 4)
	shortKey = le.AppendUint32(shortKey, 9)
	tiny := le.AppendUint32(nil, headerAfterLen-1) // below a header: poisons the stream
	tiny = append(tiny, make([]byte, 12)...)
	many := make([]uint64, 20)
	for i := range many {
		many[i] = uint64(i)
	}
	for _, row := range []struct {
		name   string
		buf    []byte
		window int
		warmed uint64
	}{
		{"lone get", gets(1), g, 0},
		{"cohort of eight", gets(1, 2, 3, 4, 5, 6, 7, 8), 8 * g, 8},
		{"past WarmMax", gets(many...), tkv.WarmMax * g, tkv.WarmMax},
		{"gets among writes", cat(gets(1), put, gets(2), add, gets(3)), 3*g + len(put) + len(add), 3},
		{"one get among writes", cat(put, gets(2), add), g + len(put) + len(add), 0},
		{"absent keys", gets(1000, 1001), 2 * g, 2},
		{"incomplete tail", cat(gets(1, 2, 3), gets(4)[:g-1]), 3 * g, 3},
		{"incomplete first frame", gets(1)[:HeaderSize+3], 0, 0},
		{"length below a header", cat(gets(1, 2), tiny, gets(3)), 2 * g, 2},
		{"get with a short key", cat(gets(1), shortKey, gets(2)), 2*g + len(shortKey), 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := &conn{srv: NewServer(st), br: bufio.NewReaderSize(bytes.NewReader(row.buf), 64<<10)}
			if _, err := c.br.Peek(1); err != nil {
				t.Fatal(err)
			}
			warmed := st.Stats().Ops.Warmed
			c.warmCohort()
			if warmed = st.Stats().Ops.Warmed - warmed; c.window != row.window || warmed != row.warmed {
				t.Fatalf("window %d, warmed %d; want %d, %d", c.window, warmed, row.window, row.warmed)
			}
			if c.br.Buffered() != len(row.buf) {
				t.Fatalf("the scan consumed %d bytes", len(row.buf)-c.br.Buffered())
			}
		})
	}
}

// TestPipelinedCohortAnswersInOrder: a cohort of gets and writes written in
// one piece is warmed and answered in order, each get with what the writes
// before it in the cohort left.
func TestPipelinedCohortAnswersInOrder(t *testing.T) {
	addr, st := serveStore(t, tkv.Config{Shards: 4, Buckets: 64})
	for k := uint64(0); k < 8; k++ {
		if _, err := st.Put(k, "old"); err != nil {
			t.Fatal(err)
		}
	}
	nc := rawDial(t, addr)
	var b []byte
	for k := uint64(0); k < 8; k++ {
		b = AppendGetReq(b, 2*k, k)
		b = AppendPutReq(b, 2*k+1, k, "new"+strconv.FormatUint(k, 10))
	}
	b = AppendGetReq(b, 100, 3)
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 16; id++ {
		h, p := readFrame(t, nc)
		if h.ID != id || h.Status != StatusOK {
			t.Fatalf("response %d: %+v", id, h)
		}
		if h.Op == OpGet {
			if v, found, err := ParseGetResp(h.Flags, p); err != nil || !found || v != "old" {
				t.Fatalf("get %d: %q %v %v", id, v, found, err)
			}
		}
	}
	h, p := readFrame(t, nc)
	if v, _, err := ParseGetResp(h.Flags, p); err != nil || h.ID != 100 || v != "new3" {
		t.Fatalf("last get: %+v %q %v", h, v, err)
	}
	if w := st.Stats().Ops.Warmed; w == 0 {
		t.Fatalf("the cohort was not warmed")
	}
}

// benchWire measures one prebuilt frame round-tripped over loopback.
func benchWire(b *testing.B, frame []byte) {
	addr := startServer(b)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	resp := make([]byte, 4096)
	roundTrip := func() error {
		if _, err := nc.Write(frame); err != nil {
			return err
		}
		if _, err := io.ReadFull(nc, resp[:HeaderSize]); err != nil {
			return err
		}
		h, err := ParseHeader(resp[:HeaderSize], MaxRespFrame)
		if err != nil {
			return err
		}
		_, err = io.ReadFull(nc, resp[HeaderSize:HeaderSize+h.PayloadLen()])
		return err
	}
	for i := 0; i < 2000; i++ { // steady state before the timer starts
		if err := roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireGet(b *testing.B) {
	benchWire(b, AppendGetReq(nil, 1, 42))
}

func BenchmarkWirePut(b *testing.B) {
	benchWire(b, AppendPutReq(nil, 2, 42, []byte("v0")))
}
