//go:build goexperiment.synctest

package tkvwire

// The shed path on the wire, in bubbles (internal/synctime): the
// admission controller's ticks are the bubble's, so the tests know exactly
// when every batch sheds. The server comes up once the ramp is done, over
// a synctime.PipeListener or, for the alloc gate, loopback TCP.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkv"
)

// shedTicks is how many controller ticks drill mode (ShedKnee 0: always
// past the knee) takes to shed every batch: at +0.1 a tick the fifth puts
// every shard at 0.5, and batches shed at twice the worst shard's
// probability.
const shedTicks = 5

// serveShedding opens a store whose admission controller runs in drill
// mode, lets it tick shedTicks times and then serves it on ln: from then on
// every batch sheds, and single-key writes at 0.5 (the clock, and with it
// the ramp, stands still while the test only talks to the server). The
// ramp comes first so that ln may be a real socket, whose waits would hold
// the clock still. stop is serveOn's.
func serveShedding(t *testing.T, ln net.Listener) (stop func()) {
	t.Helper()
	ac := tkv.DefaultAdmitConfig()
	ac.ShedKnee = 0 // drill mode
	st, err := tkv.Open(tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, Admission: &ac})
	if err != nil {
		t.Fatalf("tkv.Open: %v", err)
	}
	synctime.Advance(shedTicks * ac.Tick)
	_, stop = serveOn(t, st, ln)
	return stop
}

// TestServerBackpressureStatus: shed requests must come back as
// StatusBackpressure and map to tkv.ErrBackpressure through errors.Is —
// the same sentinel a caller would see in-process — while reads keep
// flowing and the connection stays healthy.
func TestServerBackpressureStatus(t *testing.T) {
	synctime.Run(t, func() { testServerBackpressureStatus(t) })
}

func testServerBackpressureStatus(t *testing.T) {
	ln := synctime.NewPipeListener()
	defer serveShedding(t, ln)()
	c := NewConn(dialPipe(t, ln))
	defer c.Close()

	// Past the ramp every batch sheds.
	for i := 0; i < 30; i++ {
		_, err := c.Batch([]tkv.Op{{Kind: tkv.OpPut, Key: 2, Value: "w"}})
		if !errors.Is(err, tkv.ErrBackpressure) {
			t.Fatalf("batch %d after %d ticks: %v, want ErrBackpressure", i, shedTicks, err)
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Status != StatusBackpressure {
			t.Fatalf("shed batch error = %#v, want StatusError{StatusBackpressure}", err)
		}
	}

	// Single-key writes shed at the shards' 0.5: over a few hundred puts
	// both outcomes must appear, and nothing else.
	var shed, ok int
	for i := 0; i < 400; i++ {
		_, err := c.Put(uint64(i), "x")
		switch {
		case errors.Is(err, tkv.ErrBackpressure):
			shed++
		case err == nil:
			ok++
		default:
			t.Fatalf("put %d: %v", i, err)
		}
		// Reads are never shed.
		if _, _, err := c.Get(uint64(i)); err != nil {
			t.Fatalf("get under shedding: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("no put was shed in drill mode")
	}
	if ok == 0 {
		t.Fatal("shedding starved every put (ShedMax must keep some flowing)")
	}

	// The connection survives rejection after rejection.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after backpressure storm: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Shed == 0 {
		t.Fatal("server stats report zero sheds after a backpressure storm")
	}
}

// TestWireBatchShedsOnce: a wire batch gets one admission decision. At a
// write-shed probability of 0.1 batches shed at 0.2, the documented twice;
// a second coin (the wire's and then the store's) would shed about 0.36. The
// coin is the store's deterministic splitmix stream, so a twin store at the
// same probability, asked ShedLowPriority once per batch, names exactly how
// many of the wire's batches shed.
func TestWireBatchShedsOnce(t *testing.T) {
	synctime.Run(t, func() { testWireBatchShedsOnce(t) })
}

func testWireBatchShedsOnce(t *testing.T) {
	const batches = 20000
	ac := tkv.DefaultAdmitConfig()
	ac.ShedKnee, ac.ShedMax = 0, 0.1 // drill mode, at ShedMax from the first tick
	open := func() *tkv.Store {
		st, err := tkv.Open(tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, Admission: &ac})
		if err != nil {
			t.Fatalf("tkv.Open: %v", err)
		}
		return st
	}
	st, twin := open(), open()
	defer twin.Close()
	synctime.Advance(ac.Tick)
	want := 0
	for i := 0; i < batches; i++ {
		if twin.ShedLowPriority() {
			want++
		}
	}
	if rate := float64(want) / batches; rate < 0.19 || rate > 0.21 {
		t.Fatalf("the twin sheds %v of its batches, want 0.2", rate)
	}

	ln := synctime.NewPipeListener()
	_, stop := serveOn(t, st, ln)
	defer stop()
	c := NewConn(dialPipe(t, ln))
	defer c.Close()
	shed := 0
	for i := 0; i < batches; i++ {
		_, err := c.Batch([]tkv.Op{{Kind: tkv.OpPut, Key: uint64(i % 64), Value: "w"}})
		switch {
		case errors.Is(err, tkv.ErrBackpressure):
			shed++
		case err != nil:
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if shed != want {
		t.Fatalf("%d of %d wire batches shed, want %d (%.3f against %.3f)",
			shed, batches, want, float64(shed)/batches, float64(want)/batches)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.ShedBatches != uint64(want) {
		t.Fatalf("server stats report %d shed batches, want %d", stats.ShedBatches, want)
	}
}

// TestWireShedZeroAlloc is the alloc gate for the rejection path: past the
// overload knee a shed batch must cost only a pooled error frame — no
// request parse, no op slice, no message allocation. Same measurement
// technique as TestWireGetPutZeroAlloc: process-wide Mallocs around a
// raw-frame loop, GC parked, over loopback TCP: the server's socket path
// (its *net.TCPConn set-up and socket writes) is on the measured path.
func TestWireShedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per access")
	}
	synctime.Run(t, func() { testWireShedZeroAlloc(t) })
}

func testWireShedZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer serveShedding(t, ln)()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	batchFrame := AppendBatchReq(nil, 3, []tkv.Op{
		{Kind: tkv.OpPut, Key: 7, Value: "v0"},
		{Kind: tkv.OpAdd, Key: 8, Delta: 1},
	})
	resp := make([]byte, 4096)

	// roundTrip sends the batch and asserts it was shed (the controller is
	// past the knee: batch shed probability is pinned at 1).
	roundTrip := func() error {
		if _, err := nc.Write(batchFrame); err != nil {
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
		if h.Status != StatusBackpressure {
			return fmt.Errorf("shed batch status = %d, want %d", h.Status, StatusBackpressure)
		}
		return nil
	}

	// Warm-up: populate the frame pool with the error-response size class.
	for i := 0; i < 2000; i++ {
		if err := roundTrip(); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	const ops = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if err := roundTrip(); err != nil {
			t.Fatalf("measured run: %v", err)
		}
	}
	runtime.ReadMemStats(&after)

	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("shed rejection path: %.4f allocs/op (%d mallocs over %d ops)",
		perOp, after.Mallocs-before.Mallocs, ops)
	if perOp > 0.05 {
		t.Fatalf("shed rejection path allocates: %.4f allocs/op", perOp)
	}
}
