// Command tkvload is the scenario driver for tkvd: it puts a real server
// under load and exits non-zero unless the server kept its promises. There
// are three scenarios. How fast the store is, and where the time goes, is
// the business of the repository benchmark (bench/), not of this command.
//
// Load + verify (the default, load.go) drives a mixed workload — reads
// (single-key and batched multi-key), client-side CAS read-modify-write
// increments, blob puts/deletes and cross-shard atomic batches of adds and
// cas increments — with configurable key skew, read ratio, batch size, batch
// key overlap and connection count, closed-loop or at an open-loop -rate,
// over one of the server's two protocols: -proto http drives the JSON
// surface through a pooled http.Client, -proto tcp the binary wire protocol
// (internal/tkvwire) over persistent connections with -pipeline in-flight
// requests each. It prints one result line (ops/s, latency percentiles,
// errors, sheds and, on tcp, transport writes per call; the first -warmup of
// traffic is excluded) and then verifies: every increment goes through a
// transactional server path (CAS, add, batch add or batch cas), so the sum
// of all counter keys must equal the number of increments that reported
// success — a batch refused for a cas mismatch must have written nothing.
// Any lost update — in an engine, in the striped key-lock protocol, or in
// the batch two-phase — fails the run, as does a committed-transaction count
// of zero. Blob values embed their key, so a read returning another key's
// value is detected too. Increments are tallied across warm-up and
// measurement alike: the invariant is about every write that happened. With
// -minshed N this is the backpressure drill: against a tkvd whose admission
// layer sheds, the run also fails unless at least N requests came back with
// the backpressure status — the invariant must hold while requests bounce.
//
// Batch key overlap (-overlap) controls how much concurrent batches
// contend: 1 draws every batch key from the shared counter space (batches
// collide constantly), 0 confines each worker's batches to a private
// slice of it (batches are key-disjoint and, under the striped batch
// planner, commit concurrently).
//
// -scenario failover (failover.go) quits a replicating primary mid-load,
// promotes its follower and redirects the load; -scenario crash (crash.go)
// SIGKILLs a WAL-backed tkvd mid-load and restarts it over the same
// directory. Both count acknowledged increments and fail on any that is
// missing afterwards.
//
// Usage:
//
//	tkvload -url http://127.0.0.1:7070 -dur 5s -conns 16
//	tkvload -url http://127.0.0.1:7070 -proto tcp -tcpaddr 127.0.0.1:7071 -pipeline 16
//	tkvload -url http://127.0.0.1:7070 -read 0 -batch 1 -overlap 0 -batchcas 0.25
//	tkvload -url http://127.0.0.1:7074 -proto tcp -tcpaddr 127.0.0.1:7075 -zipf 1.1 -addfrac 0.5 -minshed 1
//	tkvload -scenario failover -url http://127.0.0.1:7080 -url2 http://127.0.0.1:7082
//	tkvload -scenario crash -tkvd ./tkvd -walmode pershard
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// Protocol names accepted by -proto.
const (
	protoHTTP = "http"
	protoTCP  = "tcp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tkvload:", err)
		os.Exit(1)
	}
}

// run parses the flags and hands over to the scenario they name.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tkvload", flag.ContinueOnError)
	var cfg loadConfig
	fs.StringVar(&cfg.url, "url", "", "base URL of the tkvd server (required; also the control surface for seeding and verification)")
	fs.StringVar(&cfg.tcpaddr, "tcpaddr", "", "tkvd binary wire protocol address (required by -proto tcp)")
	fs.StringVar(&cfg.proto, "proto", protoHTTP, "protocol the load is driven over: http or tcp")
	fs.IntVar(&cfg.pipeline, "pipeline", 8, "in-flight requests per tcp connection (tcp proto only)")
	fs.DurationVar(&cfg.warmup, "warmup", time.Second, "warm-up excluded from the latency histogram and ops/s")
	fs.DurationVar(&cfg.dur, "dur", 2*time.Second, "measured load duration after warm-up (drills: each load phase)")
	fs.IntVar(&cfg.conns, "conns", 8, "connections (drills: workers)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in ops/s (0 = closed loop)")
	fs.IntVar(&cfg.keys, "keys", 128, "counter key count (keys 0..n-1, sum-verified)")
	fs.IntVar(&cfg.blobs, "blobs", 128, "blob key count (put/delete/get region)")
	fs.Float64Var(&cfg.readFrac, "read", 0.5, "fraction of operations that are reads")
	fs.Float64Var(&cfg.mgetFrac, "mget", 0, "fraction of reads issued as batched multi-key reads")
	fs.Float64Var(&cfg.batchFrac, "batch", 0.25, "fraction of updates that are atomic batches")
	fs.IntVar(&cfg.batchSize, "batchsize", 8, "ops per batch (and keys per mget)")
	fs.Float64Var(&cfg.batchCAS, "batchcas", 0, "fraction of batch ops that are cas increments instead of adds")
	fs.Float64Var(&cfg.overlap, "overlap", 1, "fraction of batch keys drawn from the shared key space (the rest from a per-worker private slice)")
	fs.Float64Var(&cfg.zipfS, "zipf", 0, "zipf skew of the counter keys (0 = uniform, any s > 0 skews)")
	fs.Float64Var(&cfg.addFrac, "addfrac", 0, "fraction of non-batch updates issued as server-side add increments")
	fs.Uint64Var(&cfg.minShed, "minshed", 0, "fail unless at least this many requests were shed with backpressure (the backpressure drill)")
	fs.Int64Var(&cfg.seed, "seed", 1, "RNG seed")
	fs.BoolVar(&cfg.verify, "verify", true, "verify the zero-lost-update invariant at the end")
	var (
		scenario = fs.String("scenario", "",
			"scripted drill instead of load + verify: 'failover' quits the primary mid-load, "+
				"promotes the follower and verifies zero lost acknowledged updates; "+
				"'crash' SIGKILLs a WAL-backed tkvd mid-load, restarts it over the same "+
				"log directory and verifies zero lost acknowledged updates")
		url2    = fs.String("url2", "", "follower base URL (required by -scenario failover)")
		tkvdBin = fs.String("tkvd", "", "path to the tkvd binary (required by -scenario crash)")
		waldir  = fs.String("waldir", "", "WAL directory for -scenario crash (empty: a fresh temp dir)")
		kills   = fs.Int("kills", 2, "SIGKILL/restart rounds for -scenario crash")
		walMode = fs.String("walmode", "shared", "WAL layout for -scenario crash: shared (one lane, one fsync per group for the whole store) or pershard")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.keys <= 0 || cfg.blobs <= 0 || cfg.batchSize <= 0 || cfg.conns <= 0 || cfg.pipeline <= 0 {
		return fmt.Errorf("-keys, -blobs, -batchsize, -conns and -pipeline must be positive")
	}
	if cfg.warmup < 0 {
		return fmt.Errorf("-warmup must not be negative")
	}
	if !(cfg.zipfS >= 0) || math.IsInf(cfg.zipfS, 0) { // NaN fails the comparison too
		return fmt.Errorf("-zipf %g must be 0 (uniform) or > 0", cfg.zipfS)
	}
	if cfg.overlap < 0 || cfg.overlap > 1 || cfg.mgetFrac < 0 || cfg.mgetFrac > 1 ||
		cfg.batchCAS < 0 || cfg.batchCAS > 1 || cfg.addFrac < 0 || cfg.addFrac > 1 {
		return fmt.Errorf("-overlap, -mget, -batchcas and -addfrac must be in [0,1]")
	}
	cfg.url = strings.TrimRight(cfg.url, "/")

	switch *scenario {
	case "":
		return runLoad(cfg, out)
	case "failover":
		if cfg.url == "" || *url2 == "" {
			return fmt.Errorf("-scenario failover requires -url (primary) and -url2 (follower)")
		}
		return runFailover(failoverSpec{
			primary:  cfg.url,
			follower: strings.TrimRight(*url2, "/"),
			keys:     cfg.keys,
			workers:  cfg.conns,
			phase:    cfg.dur,
		}, out)
	case "crash":
		if *tkvdBin == "" {
			return fmt.Errorf("-scenario crash requires -tkvd (path to the tkvd binary)")
		}
		if *kills <= 0 {
			return fmt.Errorf("-kills must be positive")
		}
		mode, err := tkvwal.ParseMode(*walMode)
		if err != nil {
			return fmt.Errorf("-walmode: %w", err)
		}
		if *waldir == "" {
			tmp, err := os.MkdirTemp("", "tkvload-crash-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			*waldir = tmp
		}
		return runCrash(crashSpec{
			tkvd:    *tkvdBin,
			waldir:  *waldir,
			walmode: string(mode),
			keys:    cfg.keys,
			workers: cfg.conns,
			phase:   cfg.dur,
			kills:   *kills,
		}, out)
	default:
		return fmt.Errorf("unknown -scenario %q (want failover or crash)", *scenario)
	}
}
