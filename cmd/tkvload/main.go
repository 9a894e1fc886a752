// Command tkvload is the scenario driver for tkvd: it puts a real server
// under load and exits non-zero unless the server kept its promises. How
// fast the store is, and where the time goes, is the business of the
// repository benchmark (bench/), not of this command.
//
// Its three scenarios run one load driver (load.go) over the wire protocol
// (internal/tkvwire) and end in one verdict (verdict.go): every increment is
// +1 on a counter key and its ack carries the value it produced, so the
// values acked on a key must be distinct and none above the key's final
// value. One consistent snapshot at the end names any lost acknowledged
// write by key, value and phase.
//
// Load + verify (the default) drives a mix at -tcpaddr over -conns
// connections with -pipeline requests in flight each, closed-loop or at an
// open-loop -rate: reads (-read, batched as multi-key reads with -mget),
// client-side CAS increments, server-side adds (-addfrac), blob puts and
// deletes, and atomic batches (-batch, -batchsize) of adds and cas
// increments (-batchcas), over counter keys drawn uniformly or -zipf skewed.
// -overlap 1 draws batch keys from the shared counter space; 0 confines each
// worker to a private slice, so concurrent batches are key-disjoint. It
// prints one result line (ops/s beside wire requests/s — a CAS increment is
// one op but as many get+cas requests as it took rounds —, latency
// percentiles, errors, sheds, transport writes per call; the first -warmup
// is excluded) and the verdict. Every reply arrives here, so it also fails
// on an increment that landed unacknowledged (a batch refused for a cas
// mismatch must write nothing), on a blob read returning another key's value
// and on zero committed transactions. With -minshed N against a shedding
// tkvd it is the backpressure drill: the run also fails unless N requests
// came back with the backpressure status.
//
// -scenario failover (failover.go) quits a replicating primary mid-load,
// promotes its follower and redirects the load; -scenario crash (crash.go)
// SIGKILLs a WAL-backed tkvd mid-load and restarts it over the same
// directory. Their load is -conns workers doing server-side adds, each on
// its own connection, redialing after a transport error; an increment whose
// ack died with a server is reported, not failed. HTTP is only their control
// channel to tkvd (/healthz, which also names the wire address, /quit and
// /promote).
//
// Usage:
//
//	tkvload -tcpaddr 127.0.0.1:7071 -dur 5s -conns 16 -pipeline 16
//	tkvload -tcpaddr 127.0.0.1:7071 -read 0 -batch 1 -overlap 0 -batchcas 0.25
//	tkvload -tcpaddr 127.0.0.1:7075 -zipf 1.1 -addfrac 0.5 -minshed 1
//	tkvload -scenario failover -url http://127.0.0.1:7080 -url2 http://127.0.0.1:7082
//	tkvload -scenario crash -tkvd ./tkvd -kills 3
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
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
	fs.StringVar(&cfg.tcpaddr, "tcpaddr", "", "tkvd wire protocol address to load (required by the load scenario)")
	fs.IntVar(&cfg.pipeline, "pipeline", 8, "in-flight requests per connection (workers = -conns × -pipeline)")
	fs.DurationVar(&cfg.warmup, "warmup", time.Second, "warm-up excluded from the latency histogram and ops/s")
	fs.DurationVar(&cfg.dur, "dur", 2*time.Second, "measured load duration after warm-up (drills: each load phase)")
	fs.IntVar(&cfg.conns, "conns", 8, "connections (drills: workers)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in ops/s (0 = closed loop)")
	fs.IntVar(&cfg.keys, "keys", 128, "counter key count (keys 0..n-1, every acked increment checked)")
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
	var (
		scenario = fs.String("scenario", "",
			"scripted drill instead of load + verify: 'failover' quits the primary mid-load, "+
				"promotes the follower and verifies zero lost acknowledged updates; "+
				"'crash' SIGKILLs a WAL-backed tkvd mid-load, restarts it over the same "+
				"log directory and verifies zero lost acknowledged updates")
		url     = fs.String("url", "", "primary's control URL, tkvd's -addr (required by -scenario failover)")
		url2    = fs.String("url2", "", "follower's control URL (required by -scenario failover)")
		tkvdBin = fs.String("tkvd", "", "path to the tkvd binary (required by -scenario crash)")
		waldir  = fs.String("waldir", "", "WAL directory for -scenario crash (empty: a fresh temp dir)")
		kills   = fs.Int("kills", 2, "SIGKILL/restart rounds for -scenario crash")
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
	// The drills' load: each of -conns workers does server-side adds on its
	// own connection.
	drill := cfg
	drill.pipeline, drill.rate, drill.zipfS, drill.readFrac, drill.batchFrac, drill.addFrac = 1, 0, 0, 0, 0, 1
	switch *scenario {
	case "":
		return runLoad(cfg, out)
	case "failover":
		if *url == "" || *url2 == "" {
			return fmt.Errorf("-scenario failover requires -url (primary) and -url2 (follower)")
		}
		return runFailover(strings.TrimRight(*url, "/"), strings.TrimRight(*url2, "/"), drill, out)
	case "crash":
		if *tkvdBin == "" {
			return fmt.Errorf("-scenario crash requires -tkvd (path to the tkvd binary)")
		}
		if *kills <= 0 {
			return fmt.Errorf("-kills must be positive")
		}
		if *waldir == "" {
			tmp, err := os.MkdirTemp("", "tkvload-crash-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			*waldir = tmp
		}
		return runCrash(*tkvdBin, *waldir, *kills, drill, out)
	default:
		return fmt.Errorf("unknown -scenario %q (want failover or crash)", *scenario)
	}
}
