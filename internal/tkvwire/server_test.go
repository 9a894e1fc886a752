package tkvwire

import (
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

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
	return ln.Addr().String()
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

	// An unknown batch kind is a bad request, not a dead connection.
	if _, err := c.Batch([]tkv.Op{{Kind: "bogus", Key: 1}}); !errors.Is(err, tkv.ErrUser) {
		t.Fatalf("unknown kind: %v, want ErrUser", err)
	}

	n, err := c.Len()
	if err != nil || n == 0 {
		t.Fatalf("len: %d %v", n, err)
	}
	snap, err := c.Snapshot()
	if err != nil || len(snap) != n {
		t.Fatalf("snapshot: %d entries (len %d), %v", len(snap), n, err)
	}
	if snap[20] != "x" {
		t.Fatalf("snapshot[20] = %q", snap[20])
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Ops.Puts == 0 || stats.Ops.Gets == 0 {
		t.Fatalf("stats counters empty: %+v", stats.Ops)
	}
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

// wireSteadyState drives count get+put pairs over a raw connection with
// prebuilt frames, returning only transport errors. The server echoes ids
// blindly, so resending identical frames is legal.
func wireSteadyState(nc net.Conn, getFrame, putFrame []byte, resp []byte, count int) error {
	for i := 0; i < count; i++ {
		if _, err := nc.Write(putFrame); err != nil {
			return err
		}
		if _, err := io.ReadFull(nc, resp[:HeaderSize]); err != nil {
			return err
		}
		if _, err := nc.Write(getFrame); err != nil {
			return err
		}
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
	return nil
}

// TestWireGetPutZeroAlloc is the alloc gate for the serving path: after
// warm-up, a get+put round trip must not allocate on the server side.
// testing.AllocsPerRun only counts the calling goroutine, so this measures
// process-wide Mallocs around a raw-frame loop with GC parked (the client
// side of the loop is itself allocation-free).
func TestWireGetPutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per access")
	}
	addr := startServer(t)
	nc := rawDial(t, addr)

	getFrame := AppendGetReq(nil, 1, 42)
	putFrame := AppendPutReq(nil, 2, 42, []byte("v0"))
	resp := make([]byte, 4096)

	// Warm-up: populate the frame pools, the store's op-slot pools and the
	// connection's intern cache.
	if err := wireSteadyState(nc, getFrame, putFrame, resp, 2000); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const ops = 4000 // 2000 iterations × (1 get + 1 put)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := wireSteadyState(nc, getFrame, putFrame, resp, ops/2); err != nil {
		t.Fatalf("measured run: %v", err)
	}
	runtime.ReadMemStats(&after)

	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("server get/put path: %.4f allocs/op (%d mallocs over %d ops)",
		perOp, after.Mallocs-before.Mallocs, ops)
	// Zero per-request allocation, with a whisker of slack for runtime
	// background noise (timers, netpoll bookkeeping).
	if perOp > 0.05 {
		t.Fatalf("get/put serving path allocates: %.4f allocs/op", perOp)
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
