package tkvwire

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
)

// startShedServer brings up a wire server whose store runs the admission
// controller in drill mode (ShedKnee 0: always past the knee), so the shed
// probability ramps to ShedMax within a few ticks regardless of load.
// With the default ShedMax of 0.8, batches shed at min(1, 2·0.8) = always —
// a deterministic rejection path for the tests below.
func startShedServer(t testing.TB) string {
	ac := tkv.DefaultAdmitConfig()
	ac.Tick = 5 * time.Millisecond
	ac.ShedKnee = 0 // drill mode
	return startServerWith(t, tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, Admission: &ac})
}

// waitForShed drives batches until the controller's ramp is complete and
// every batch sheds, so tests observe the steady overloaded state rather
// than the ramp. Mid-ramp sheds are probabilistic; 30 consecutive ones only
// happen once the batch shed probability is pinned at 1.
func waitForShed(t testing.TB, c *Conn) {
	t.Helper()
	ops := []tkv.Op{{Kind: tkv.OpPut, Key: 1, Value: "v"}}
	deadline := time.Now().Add(10 * time.Second)
	streak := 0
	for time.Now().Before(deadline) {
		// One probe per tick: a 30-shed streak then spans ≥30 ticks, well
		// past the ~8 the ramp needs, so lucky mid-ramp streaks can't pass.
		time.Sleep(5 * time.Millisecond)
		_, err := c.Batch(ops)
		switch {
		case errors.Is(err, tkv.ErrBackpressure):
			if streak++; streak >= 30 {
				return
			}
		case err == nil:
			streak = 0
		default:
			t.Fatalf("batch during ramp: %v", err)
		}
	}
	t.Fatal("drill-mode controller never reached steady batch shedding")
}

// TestServerBackpressureStatus: shed requests must come back as
// StatusBackpressure and map to tkv.ErrBackpressure through errors.Is —
// the same sentinel a caller would see in-process — while reads keep
// flowing and the connection stays healthy.
func TestServerBackpressureStatus(t *testing.T) {
	addr := startShedServer(t)
	c := dialTest(t, addr)
	waitForShed(t, c)

	// Batches shed deterministically past the ramp.
	_, err := c.Batch([]tkv.Op{{Kind: tkv.OpPut, Key: 2, Value: "w"}})
	if !errors.Is(err, tkv.ErrBackpressure) {
		t.Fatalf("shed batch error = %v, want ErrBackpressure", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBackpressure {
		t.Fatalf("shed batch error = %#v, want StatusError{StatusBackpressure}", err)
	}

	// Single-key writes shed probabilistically at ShedMax = 0.8: over a few
	// hundred puts both outcomes must appear, and nothing else.
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

// TestWireShedZeroAlloc is the alloc gate for the rejection path: past the
// overload knee a shed batch must cost only a pooled error frame — no
// request parse, no op slice, no message allocation. Same measurement
// technique as TestWireGetPutZeroAlloc: process-wide Mallocs around a
// raw-frame loop, GC parked.
func TestWireShedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per access")
	}
	addr := startShedServer(t)

	// Ramp to the deterministic-shed state before measuring.
	rampConn := dialTest(t, addr)
	waitForShed(t, rampConn)

	nc := rawDial(t, addr)
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
