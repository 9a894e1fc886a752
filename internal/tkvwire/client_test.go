package tkvwire

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errInjected = errors.New("injected transport write failure")

// countConn is a transport that counts its Write calls and, once armed,
// fails them.
type countConn struct {
	net.Conn
	writes atomic.Int64
	failAt atomic.Int64 // Write number from which every Write fails; 0: never
}

func (c *countConn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	if at := c.failAt.Load(); at > 0 && n >= at {
		return 0, errInjected
	}
	return c.Conn.Write(p)
}

// dialCounted connects to the loopback server through a countConn.
func dialCounted(t testing.TB, addr string) (*Conn, *countConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cc := &countConn{Conn: nc}
	c := NewConn(cc)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// getLoop runs callers goroutines of perCaller gets each on c and returns
// each caller's first error. It fails the test if they are not all back
// within ten seconds: no call may be left parked.
func getLoop(t *testing.T, c *Conn, callers, perCaller int) []error {
	t.Helper()
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller && errs[g] == nil; i++ {
				_, _, errs[g] = c.Get(uint64(g))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("callers still parked after 10s (stats %+v)", c.WireStats())
	}
	return errs
}

// TestCohortFlushCoalesces: on one processor, eight pipelined callers are
// woken together by each batch of responses, and one of them must write
// for all. The bound leaves a factor of two for cohorts the scheduler
// splits (it serves its global queue first once in 61 rounds).
func TestCohortFlushCoalesces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, cc := dialCounted(t, startServer(t))
	const callers, perCaller = 8, 2000
	for g, err := range getLoop(t, c, callers, perCaller) {
		if err != nil {
			t.Fatalf("caller %d: %v", g, err)
		}
	}
	st, writes := c.WireStats(), cc.writes.Load()
	t.Logf("%d calls, %d flushes, %d transport writes", st.Calls, st.Flushes, writes)
	if st.Calls != callers*perCaller || uint64(writes) != st.Flushes {
		t.Fatalf("stats %+v, transport writes %d, want %d calls and one write per flush", st, writes, callers*perCaller)
	}
	if st.Flushes > st.Calls/4 {
		t.Fatalf("%d flushes for %d calls: pipelined callers are not sharing writes", st.Flushes, st.Calls)
	}
}

// TestLoneCallerFlushesItself: with nobody to yield to, every call pays
// exactly its own write and returns; there is nothing for it to wait on.
func TestLoneCallerFlushesItself(t *testing.T) {
	c, cc := dialCounted(t, startServer(t))
	const calls = 1000
	if err := getLoop(t, c, 1, calls)[0]; err != nil {
		t.Fatal(err)
	}
	if st, writes := c.WireStats(), cc.writes.Load(); st != (ConnStats{Calls: calls, Flushes: calls}) || writes != calls {
		t.Fatalf("stats %+v, %d transport writes, want exactly %d of each", st, writes, calls)
	}
}

// TestFailedFlushFailsWholeCohort: when the transport's Write fails, the
// caller that flushed and the callers that skipped their flush because
// that one carried their frames must all get an error.
func TestFailedFlushFailsWholeCohort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// A peer that never answers: whoever is not failed stays parked.
	t.Run("first write", func(t *testing.T) {
		client, peer := net.Pipe()
		defer peer.Close()
		go io.Copy(io.Discard, peer)
		cc := &countConn{Conn: client}
		cc.failAt.Store(1)
		c := NewConn(cc)
		defer c.Close()
		for g, err := range getLoop(t, c, 8, 1) {
			if err == nil {
				t.Errorf("caller %d: nil error from a connection whose only write failed", g)
			}
		}
		if st := c.WireStats(); st.Flushes != 1 {
			t.Errorf("stats %+v, want the one failed flush", st)
		}
	})

	// A live pipeline against the real server, cut in the middle.
	t.Run("mid stream", func(t *testing.T) {
		c, cc := dialCounted(t, startServer(t))
		cc.failAt.Store(100)
		for g, err := range getLoop(t, c, 8, 1<<20) {
			if err == nil {
				t.Errorf("caller %d ran to the end over a failed transport", g)
			}
		}
		st := c.WireStats()
		t.Logf("%d calls, %d flushes before and including the failed one", st.Calls, st.Flushes)
		if st.Flushes != 100 || st.Calls < 2*st.Flushes {
			t.Errorf("stats %+v: want 100 flushes, each carrying a cohort", st)
		}
		if _, _, err := c.Get(1); err == nil {
			t.Error("call on the failed connection succeeded")
		}
	})
}

// benchConnGet drives callers goroutines of gets on one Conn against the
// loopback server and reports the transport writes each call cost.
func benchConnGet(b *testing.B, callers int) {
	c := dialTest(b, startServer(b))
	if _, err := c.Put(42, "v0"); err != nil {
		b.Fatal(err)
	}
	run := func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, _, err := c.Get(42); err != nil {
						b.Error(err)
						return
					}
				}
			}((n + g) / callers) // the shares sum to n
		}
		wg.Wait()
	}
	run(2000) // steady state before the timer starts
	before := c.WireStats()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	st := c.WireStats()
	b.ReportMetric(float64(st.Flushes-before.Flushes)/float64(st.Calls-before.Calls), "writes/op")
}

func BenchmarkConnGetSerial(b *testing.B)     { benchConnGet(b, 1) }
func BenchmarkConnGetPipelined8(b *testing.B) { benchConnGet(b, 8) }

// Ping and Len are the client halves of the ping and len opcodes; the
// server answers both, and only the tests send them.

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize)
	f.B = AppendPingReq(f.B, id)
	cl, err := c.do(id, f)
	if err != nil {
		return err
	}
	defer c.release(cl)
	return errOf(cl)
}

// Len returns the store's key count under a consistent cut.
func (c *Conn) Len() (int, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize)
	f.B = AppendEmptyReq(f.B, OpLen, id)
	cl, err := c.do(id, f)
	if err != nil {
		return 0, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return 0, err
	}
	n, err := ParseUintResp(OpLen, cl.payload.B)
	return int(n), err
}

// AppendPingReq appends a ping request frame.
func AppendPingReq(b []byte, id uint64) []byte {
	return appendHeader(b, OpPing, 0, 0, id, 0)
}
