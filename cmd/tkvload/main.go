// Command tkvload is an open-loop load driver for tkvd. It generates a
// mixed workload — reads (single-key and batched multi-key), client-side
// CAS read-modify-write increments, blob puts/deletes and cross-shard
// atomic batches of adds and cas increments — with configurable key skew,
// read ratio, batch size, batch key overlap and connection count, and
// reports throughput and latency percentiles as a report table over the
// swept connection counts.
//
// The driver speaks both server protocols. -proto selects one or sweeps
// several (comma-separated): "http" drives the JSON surface through a
// pooled http.Client; "tcp" drives the binary wire protocol
// (internal/tkvwire) over persistent connections with -pipeline in-flight
// requests per connection, the serving edge the binary protocol exists
// for. Each cell's first -warmup of traffic is excluded from the latency
// histogram and the ops/s figure, so connection ramp-up, pool fills and
// scheduler warm-up never pollute the steady-state numbers.
//
// The driver doubles as a correctness checker: every increment it performs
// goes through a transactional server path (CAS, batch add or batch cas),
// so at the end of the run the sum of all counter keys must equal the
// number of increments that reported success — a batch refused for a cas
// mismatch must have written nothing. Any lost update — in an engine, in
// the striped key-lock protocol, or in the batch two-phase — fails the
// run, as does a committed-transaction count of zero. Blob values embed
// their key, so a read returning another key's value is also detected.
// Increments are tallied across warm-up and measurement alike: the
// invariant is about every write that happened, not just the measured ones.
//
// Batch key overlap (-overlap) controls how much concurrent batches
// contend: 1 draws every batch key from the shared counter space (batches
// collide constantly), 0 confines each worker's batches to a private
// slice of it (batches are key-disjoint and, under the striped batch
// planner, commit concurrently).
//
// Usage:
//
//	tkvload -url http://127.0.0.1:7070 -dur 5s -conns 4,16,64
//	tkvload -url http://127.0.0.1:7070 -proto tcp -tcpaddr 127.0.0.1:7071 -pipeline 16
//	tkvload -url http://127.0.0.1:7070 -proto http,tcp -tcpaddr 127.0.0.1:7071 -conns 8
//	tkvload -url http://127.0.0.1:7070 -read 0 -batch 1 -overlap 0 -batchcas 0.25
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shrink-tm/shrink/internal/report"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
	"github.com/shrink-tm/shrink/internal/trace"
)

// blobBase offsets the blob key region away from the counter keys.
const blobBase = uint64(1) << 32

// casAttempts bounds one CAS increment's retry loop.
const casAttempts = 64

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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tkvload", flag.ContinueOnError)
	var (
		url       = fs.String("url", "", "base URL of the tkvd server (required; also the control surface for seeding and verification)")
		tcpaddr   = fs.String("tcpaddr", "", "tkvd binary wire protocol address (required when -proto includes tcp)")
		protoList = fs.String("proto", protoHTTP, "comma-separated protocols to sweep: http, tcp")
		pipeline  = fs.Int("pipeline", 8, "in-flight requests per tcp connection (tcp proto only)")
		warmup    = fs.Duration("warmup", time.Second, "per-cell warm-up excluded from latency histograms and ops/s")
		dur       = fs.Duration("dur", 2*time.Second, "measurement duration per connection-count cell (after warm-up)")
		connsList = fs.String("conns", "8", "comma-separated connection counts to sweep")
		scenario  = fs.String("scenario", "",
			"scripted drill instead of a sweep: 'failover' kills the primary mid-load, "+
				"promotes the follower and verifies zero lost acknowledged updates; "+
				"'crash' SIGKILLs a WAL-backed tkvd mid-load, restarts it over the same "+
				"log directory and verifies zero lost acknowledged updates")
		url2      = fs.String("url2", "", "follower base URL (required by -scenario failover)")
		tkvdBin   = fs.String("tkvd", "", "path to the tkvd binary (required by -scenario crash)")
		waldirArg = fs.String("waldir", "", "WAL directory for -scenario crash (empty: a fresh temp dir)")
		kills     = fs.Int("kills", 2, "SIGKILL/restart rounds for -scenario crash")
		walMode   = fs.String("walmode", "shared", "WAL layout for -scenario crash: shared (one lane, one fsync per group for the whole store) or pershard")
		rate      = fs.Float64("rate", 0, "open-loop arrival rate in ops/s (0 = closed loop)")
		keys      = fs.Int("keys", 128, "counter key count (keys 0..n-1, sum-verified)")
		blobs     = fs.Int("blobs", 128, "blob key count (put/delete/get region)")
		readFrac  = fs.Float64("read", 0.5, "fraction of operations that are reads")
		mgetFrac  = fs.Float64("mget", 0, "fraction of reads issued as batched multi-key reads")
		batchFrac = fs.Float64("batch", 0.25, "fraction of updates that are atomic batches")
		batchSize = fs.Int("batchsize", 8, "ops per batch (and keys per mget)")
		batchCAS  = fs.Float64("batchcas", 0, "fraction of batch ops that are cas increments instead of adds")
		overlap   = fs.Float64("overlap", 1, "fraction of batch keys drawn from the shared key space (the rest from a per-worker private slice)")
		zipfArg   = fs.String("zipf", "0", "zipf skew: one value (0 = uniform, any s > 0 skews), a comma list, or a ladder a..b[/step] (sweep mode)")
		addFrac   = fs.Float64("addfrac", 0, "fraction of non-batch updates issued as server-side add increments")
		minShed   = fs.Uint64("minshed", 0, "fail unless at least this many requests were shed with backpressure")
		sweepMode = fs.String("sweep", "", "sweep mode: 'sched' self-hosts the store and crosses scheduler x engine x zipf; 'wal' self-hosts and crosses durability (off, async, sync) x WAL layout (pershard, shared) x conns")
		schedArg  = fs.String("scheds", "none,shrink,ats,shrink+admit", "scheduler configs for -sweep sched ('+admit' adds the admission layer)")
		engineArg = fs.String("engines", "swiss,tiny", "STM engines for -sweep sched")
		shards    = fs.Int("shards", 2, "shards for the self-hosted store (-sweep sched only)")
		pool      = fs.Int("pool", 4, "STM threads per shard (-sweep sched only)")
		buckets   = fs.Int("buckets", 512, "hash buckets per shard (-sweep sched only)")
		admitKnee = fs.Float64("admitknee", 0, "overload knee for '+admit' sweep configs (0 = default; <0 drill mode)")
		admitMax  = fs.Float64("admitmax", 0, "shed probability ceiling for '+admit' sweep configs (0 = default)")
		seed      = fs.Int64("seed", 1, "RNG seed")
		csv       = fs.Bool("csv", false, "emit CSV instead of a text table")
		jsonPath  = fs.String("json", "", "also write the sweep as machine-readable JSON to this file (e.g. BENCH_tkv.json)")
		verifyEnd = fs.Bool("verify", true, "verify the zero-lost-update invariant at the end")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *keys <= 0 || *blobs <= 0 || *batchSize <= 0 {
		return fmt.Errorf("-keys, -blobs and -batchsize must be positive")
	}
	if *pipeline <= 0 {
		return fmt.Errorf("-pipeline must be positive")
	}
	if *warmup < 0 {
		return fmt.Errorf("-warmup must not be negative")
	}
	zipfs, err := parseZipfLadder(*zipfArg)
	if err != nil {
		return err
	}
	if *overlap < 0 || *overlap > 1 || *mgetFrac < 0 || *mgetFrac > 1 || *batchCAS < 0 || *batchCAS > 1 || *addFrac < 0 || *addFrac > 1 {
		return fmt.Errorf("-overlap, -mget, -batchcas and -addfrac must be in [0,1]")
	}
	var protos []string
	for _, p := range strings.Split(*protoList, ",") {
		p = strings.TrimSpace(p)
		switch p {
		case protoHTTP, protoTCP:
			protos = append(protos, p)
		default:
			return fmt.Errorf("unknown protocol %q (want http or tcp)", p)
		}
	}
	if len(protos) == 0 {
		return fmt.Errorf("-proto must name at least one protocol")
	}
	tcpSwept := *sweepMode == "sched" || *sweepMode == "wal"
	for _, p := range protos {
		tcpSwept = tcpSwept || p == protoTCP
	}
	if tcpSwept && *tcpaddr == "" && *sweepMode == "" {
		return fmt.Errorf("-tcpaddr is required when -proto includes tcp")
	}
	// The worker count per cell is conns for http and conns*pipeline for
	// tcp (workers share connections, pipelining their requests); the sched
	// sweep always drives the binary protocol.
	maxFanout := 1
	if tcpSwept {
		maxFanout = *pipeline
	}
	var conns []int
	for _, p := range strings.Split(*connsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad connection count %q", p)
		}
		// Disjoint batch keys need a non-empty private slice per worker;
		// silently degrading to the shared space would corrupt the overlap
		// comparison the flag exists for.
		if *overlap < 1 && *keys/(n*maxFanout) == 0 {
			return fmt.Errorf("-overlap %g needs -keys >= workers (got %d keys, %d workers)",
				*overlap, *keys, n*maxFanout)
		}
		conns = append(conns, n)
	}

	cfg := loadConfig{
		dur:       *dur,
		warmup:    *warmup,
		rate:      *rate,
		keys:      *keys,
		blobs:     *blobs,
		readFrac:  *readFrac,
		mgetFrac:  *mgetFrac,
		batchFrac: *batchFrac,
		batchSize: *batchSize,
		batchCAS:  *batchCAS,
		overlap:   *overlap,
		addFrac:   *addFrac,
		seed:      *seed,
		pipeline:  *pipeline,
	}

	switch *scenario {
	case "":
	case "failover":
		if *url == "" || *url2 == "" {
			return fmt.Errorf("-scenario failover requires -url (primary) and -url2 (follower)")
		}
		return runFailover(failoverSpec{
			primary:  strings.TrimRight(*url, "/"),
			follower: strings.TrimRight(*url2, "/"),
			keys:     *keys,
			workers:  conns[0],
			phase:    *dur,
		}, out)
	case "crash":
		if *tkvdBin == "" {
			return fmt.Errorf("-scenario crash requires -tkvd (path to the tkvd binary)")
		}
		if *kills <= 0 {
			return fmt.Errorf("-kills must be positive")
		}
		wd := *waldirArg
		if wd == "" {
			tmp, err := os.MkdirTemp("", "tkvload-crash-wal-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			wd = tmp
		}
		mode, err := tkvwal.ParseMode(*walMode)
		if err != nil {
			return fmt.Errorf("-walmode: %w", err)
		}
		return runCrash(crashSpec{
			tkvd:    *tkvdBin,
			waldir:  wd,
			walmode: string(mode),
			keys:    *keys,
			workers: conns[0],
			phase:   *dur,
			kills:   *kills,
		}, out)
	default:
		return fmt.Errorf("unknown -scenario %q (want failover or crash)", *scenario)
	}

	if *sweepMode == "sched" {
		sp := sweepSpec{
			cfg:       cfg,
			zipfs:     zipfs,
			conns:     conns,
			shards:    *shards,
			pool:      *pool,
			buckets:   *buckets,
			admitKnee: *admitKnee,
			admitMax:  *admitMax,
			minShed:   *minShed,
			csv:       *csv,
			jsonPath:  *jsonPath,
		}
		if err := sp.parseConfigs(*schedArg, *engineArg); err != nil {
			return err
		}
		return runSchedSweep(sp, out)
	}
	if *sweepMode == "wal" {
		if len(zipfs) != 1 {
			return fmt.Errorf("-zipf must be a single value with -sweep wal")
		}
		cfg.zipfS = zipfs[0]
		return runWalSweep(walSweepSpec{
			cfg:      cfg,
			conns:    conns,
			shards:   *shards,
			pool:     *pool,
			buckets:  *buckets,
			csv:      *csv,
			jsonPath: *jsonPath,
		}, out)
	}
	if *sweepMode != "" {
		return fmt.Errorf("unknown -sweep mode %q (want sched or wal)", *sweepMode)
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	if len(zipfs) != 1 {
		return fmt.Errorf("-zipf must be a single value outside -sweep sched")
	}
	cfg.zipfS = zipfs[0]

	d := &driver{tcpaddr: *tcpaddr, cfg: cfg}
	maxConns := 0
	for _, n := range conns {
		maxConns = max(maxConns, n)
	}
	d.control = &httpKV{
		base: strings.TrimRight(*url, "/"),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        maxConns * 2,
				MaxIdleConnsPerHost: maxConns * 2,
			},
		},
	}

	// Seed every counter key so CAS loops always find a value.
	if err := d.seedCounters(); err != nil {
		return err
	}

	mode := "closed-loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s", *rate)
	}
	table := report.NewTable(
		fmt.Sprintf("tkvload %s proto=%s (%s, read=%.2f mget=%.2f batch=%.2f cas=%.2f overlap=%.2f zipf=%g pipeline=%d)",
			strings.TrimRight(*url, "/"), strings.Join(protos, ","), mode, *readFrac, *mgetFrac,
			*batchFrac, *batchCAS, *overlap, cfg.zipfS, *pipeline),
		"conns", "ops/s and latency (us)")
	bench := benchJSON{
		Tool:      "tkvload",
		Mode:      mode,
		Protos:    strings.Join(protos, ","),
		Pipeline:  *pipeline,
		WarmupSec: warmup.Seconds(),
		ReadFrac:  *readFrac,
		MGetFrac:  *mgetFrac,
		BatchFrac: *batchFrac,
		BatchSize: *batchSize,
		BatchCAS:  *batchCAS,
		AddFrac:   *addFrac,
		Overlap:   *overlap,
		Zipf:      cfg.zipfS,
		Keys:      *keys,
		Blobs:     *blobs,
		DurSec:    dur.Seconds(),
	}
	for _, proto := range protos {
		pfx := ""
		if len(protos) > 1 {
			pfx = proto + " "
		}
		for _, n := range conns {
			clients, workers, teardown, err := d.setup(proto, n)
			if err != nil {
				return fmt.Errorf("%s setup (%d conns): %w", proto, n, err)
			}
			cell := d.drive(clients, workers)
			teardown()
			opsPerSec := float64(cell.ops) / cell.elapsed.Seconds()
			table.Add(pfx+"ops/s", n, opsPerSec)
			if proto == protoTCP {
				// Transport writes per request: how many pipelined callers
				// shared each write syscall (1.00 = none did).
				var sends tkvwire.ConnStats
				for _, cl := range clients {
					st := cl.(*tcpKV).c.WireStats()
					sends.Calls += st.Calls
					sends.Flushes += st.Flushes
				}
				table.Add(pfx+"flushes/call", n, float64(sends.Flushes)/float64(sends.Calls))
			}
			table.Add(pfx+"p50us", n, float64(cell.hist.Quantile(0.50)))
			table.Add(pfx+"p95us", n, float64(cell.hist.Quantile(0.95)))
			table.Add(pfx+"p99us", n, float64(cell.hist.Quantile(0.99)))
			table.Add(pfx+"errors", n, float64(cell.errs))
			table.Add(pfx+"sheds", n, float64(cell.sheds))
			cj := cellJSON{
				Proto:     proto,
				Conns:     n,
				Ops:       cell.ops,
				OpsPerSec: opsPerSec,
				P50us:     cell.hist.Quantile(0.50),
				P95us:     cell.hist.Quantile(0.95),
				P99us:     cell.hist.Quantile(0.99),
				Errors:    cell.errs,
				Sheds:     cell.sheds,
			}
			if proto == protoTCP {
				cj.Pipeline = *pipeline
			}
			bench.Cells = append(bench.Cells, cj)
		}
	}
	if *csv {
		table.WriteCSV(out)
	} else {
		table.WriteText(out)
	}

	var verifyErr error
	if *verifyEnd {
		bench.Verify, verifyErr = d.verify(out)
	}
	if verifyErr == nil && *minShed > 0 && d.shedSeen.Load() < *minShed {
		verifyErr = fmt.Errorf("backpressure expected: %d requests shed, -minshed %d",
			d.shedSeen.Load(), *minShed)
	}
	if *jsonPath != "" {
		if err := report.SaveJSON(*jsonPath, bench); err != nil {
			if verifyErr != nil {
				// Don't let an artifact-write failure mask an invariant
				// violation; the violation is the run's result.
				fmt.Fprintln(out, "tkvload: writing", *jsonPath, "failed:", err)
				return verifyErr
			}
			return err
		}
	}
	return verifyErr
}

// benchJSON is the machine-readable form of one tkvload run, written by
// -json so future PRs have a perf trajectory to diff against (the committed
// BENCH_tkv.json at the repository root is one of these). Pre-protocol
// artifacts lack the proto/pipeline/warmup fields; they decode with zero
// values and their cells read as HTTP cells measured without warm-up.
type benchJSON struct {
	Tool      string      `json:"tool"`
	Mode      string      `json:"mode"`
	Protos    string      `json:"protos,omitempty"`
	Pipeline  int         `json:"pipeline,omitempty"`
	WarmupSec float64     `json:"warmupSec,omitempty"`
	ReadFrac  float64     `json:"readFrac"`
	MGetFrac  float64     `json:"mgetFrac,omitempty"`
	BatchFrac float64     `json:"batchFrac"`
	BatchSize int         `json:"batchSize"`
	BatchCAS  float64     `json:"batchCASFrac,omitempty"`
	AddFrac   float64     `json:"addFrac,omitempty"`
	Overlap   float64     `json:"overlap"`
	Zipf      float64     `json:"zipf"`
	Keys      int         `json:"keys"`
	Blobs     int         `json:"blobs"`
	DurSec    float64     `json:"durationSecPerCell"`
	Cells     []cellJSON  `json:"cells"`
	Verify    *verifyJSON `json:"verify,omitempty"`
}

// cellJSON is one swept (protocol, connection count) measurement.
type cellJSON struct {
	Proto     string  `json:"proto,omitempty"`
	Conns     int     `json:"conns"`
	Pipeline  int     `json:"pipeline,omitempty"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"opsPerSec"`
	P50us     uint64  `json:"p50us"`
	P95us     uint64  `json:"p95us"`
	P99us     uint64  `json:"p99us"`
	Errors    uint64  `json:"errors"`
	Sheds     uint64  `json:"sheds,omitempty"`
}

// verifyJSON is the end-of-run invariant check's outcome.
type verifyJSON struct {
	Commits        uint64 `json:"commits"`
	Aborts         uint64 `json:"aborts"`
	Serializations uint64 `json:"serializations"`
	SchedConfirmed uint64 `json:"schedConfirmed,omitempty"`
	SchedRefuted   uint64 `json:"schedRefuted,omitempty"`
	StripeWaits    uint64 `json:"stripeWaits"`
	ROFallbacks    uint64 `json:"roFallbacks"`
	ServerShed     uint64 `json:"serverShed,omitempty"`
	ServerRouted   uint64 `json:"serverRouted,omitempty"`
	CounterSum     uint64 `json:"counterSum"`
	Increments     uint64 `json:"increments"`
	CASMismatches  uint64 `json:"batchCASMismatches"`
	// Wal* record the server's durability watermarks at verification
	// time (absent when the server runs without a WAL).
	WalMode       string  `json:"walMode,omitempty"`
	WalGroupMean  float64 `json:"walGroupMean,omitempty"`
	WalFsyncP99us uint64  `json:"walFsyncP99us,omitempty"`
	WalDurableLag uint64  `json:"walDurableLag,omitempty"`
	OK            bool    `json:"ok"`

	// walAppends/walFsyncs carry raw counters to the wal sweep's cell
	// rows; they are not part of the marshaled verify summary.
	walAppends uint64
	walFsyncs  uint64
}

// loadConfig is the per-run workload shape.
type loadConfig struct {
	dur, warmup         time.Duration
	rate                float64
	keys, blobs         int
	readFrac, batchFrac float64
	mgetFrac            float64
	batchSize           int
	batchCAS            float64
	overlap             float64
	addFrac             float64
	zipfS               float64
	seed                int64
	pipeline            int
}

// kvClient is the store surface the workload drives, implemented over
// HTTP/JSON and over the binary wire protocol. One kvClient may be shared
// by several workers (the tcp client pipelines their requests on one
// connection).
type kvClient interface {
	get(key uint64) (string, bool, error)
	put(key uint64, val string) error
	del(key uint64) error
	cas(key uint64, old, new string) (swapped bool, err error)
	add(key uint64, delta int64) error
	mget(keys []uint64) ([]tkv.OpResult, error)
	batch(ops []tkv.Op) (mismatch bool, nres int, err error)
	snapshot() (map[uint64]string, error)
	stats() (tkv.Stats, error)
}

// driver owns the workload configuration and the cross-cell increment
// tally. Seeding and verification always run over the HTTP control client;
// the measured traffic goes through whatever kvClient the swept protocol
// dictates.
type driver struct {
	control kvClient
	tcpaddr string
	cfg     loadConfig

	// Successful transactional increments, accumulated across cells; the
	// final counter sum must equal their total.
	casIncrs   atomic.Uint64
	batchAdds  atomic.Uint64
	serverAdds atomic.Uint64
	// shedSeen counts backpressure rejections across warm-up and
	// measurement alike (the -minshed assertion is about the whole run).
	shedSeen atomic.Uint64
	// batchCASMisses counts batches the server refused whole (a cas op's
	// compare failed): zero increments, but not an error.
	batchCASMisses atomic.Uint64
	// blobCorrupt counts blob reads whose value named another key.
	blobCorrupt atomic.Uint64
}

// seedCounters writes "0" to every counter key over the control client so
// CAS loops always find a value. A shedding server (tkvd -admit in drill
// mode, as the CI e2e runs it) rejects writes probabilistically, so each
// key retries through backpressure; any other error is fatal immediately.
func (d *driver) seedCounters() error {
	const seedAttempts = 200
	for k := 0; k < d.cfg.keys; k++ {
		var err error
		for attempt := 0; attempt < seedAttempts; attempt++ {
			if err = d.control.put(uint64(k), "0"); err == nil {
				break
			}
			if !errors.Is(err, tkv.ErrBackpressure) {
				return fmt.Errorf("seeding counters: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("seeding counter %d: every attempt shed: %w", k, err)
		}
	}
	return nil
}

// setup builds one cell's clients: how many workers drive them and how they
// map. HTTP workers share the pooled http.Client; tcp workers share n
// pipelined connections, cfg.pipeline workers per connection.
func (d *driver) setup(proto string, n int) (clients []kvClient, workers int, teardown func(), err error) {
	switch proto {
	case protoTCP:
		conns := make([]*tkvwire.Conn, 0, n)
		teardown = func() {
			for _, c := range conns {
				c.Close()
			}
		}
		for i := 0; i < n; i++ {
			c, err := tkvwire.Dial(d.tcpaddr)
			if err != nil {
				teardown()
				return nil, 0, nil, err
			}
			conns = append(conns, c)
			clients = append(clients, &tcpKV{c: c})
		}
		return clients, n * d.cfg.pipeline, teardown, nil
	default:
		return []kvClient{d.control}, n, func() {}, nil
	}
}

// cellResult is one swept cell's measurement.
type cellResult struct {
	ops     uint64
	errs    uint64
	sheds   uint64
	elapsed time.Duration
	hist    *trace.Histogram
}

// zipfSampler draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s, for
// any s > 0. rand.NewZipf only accepts s > 1 (its rejection sampler needs a
// convergent tail); the contention ladder the sweep runs (0.6..1.2) spans
// both sides of 1, so this uses an explicit CDF over the bounded key space
// — exact for any positive s, and a cheap binary search per draw at the key
// counts tkvload uses. The table is immutable after construction and safe
// to share across workers.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, s float64) *zipfSampler {
	z := &zipfSampler{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipfSampler) rank(rng *rand.Rand) uint64 {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// parseZipfLadder parses -zipf: one value, a comma list, or a..b[/step]
// (inclusive, default step 0.2). 0 means uniform; anything else must be > 0.
func parseZipfLadder(arg string) ([]float64, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return []float64{0}, nil
	}
	var vals []float64
	appendVal := func(v float64) error {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("-zipf value %g must be 0 (uniform) or > 0", v)
		}
		vals = append(vals, v)
		return nil
	}
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if a, b, ok := strings.Cut(part, ".."); ok {
			step := 0.2
			if b2, st, ok := strings.Cut(b, "/"); ok {
				b = b2
				v, err := strconv.ParseFloat(st, 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("bad -zipf ladder step %q", st)
				}
				step = v
			}
			lo, err1 := strconv.ParseFloat(a, 64)
			hi, err2 := strconv.ParseFloat(b, 64)
			if err1 != nil || err2 != nil || hi < lo {
				return nil, fmt.Errorf("bad -zipf ladder %q (want a..b[/step])", part)
			}
			for v := lo; v <= hi+1e-9; v += step {
				if err := appendVal(math.Round(v*1e6) / 1e6); err != nil {
					return nil, err
				}
			}
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -zipf value %q", part)
		}
		if err := appendVal(v); err != nil {
			return nil, err
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("-zipf named no values")
	}
	return vals, nil
}

// drive runs one cell: cfg.warmup of unmeasured ramp-up, then cfg.dur of
// measured traffic over the given workers. Worker w issues through
// clients[w%len(clients)]. In open-loop mode arrivals are generated at
// cfg.rate regardless of completion, so latency includes queueing delay —
// the serving regime the paper's overload figures are about. (Arrival
// timestamps have the generator's 5ms tick granularity, which bounds the
// latency resolution in that mode.)
func (d *driver) drive(clients []kvClient, workers int) cellResult {
	cell := cellResult{hist: &trace.Histogram{}}
	var ops, errs, sheds atomic.Uint64
	var measuring atomic.Bool
	stop := make(chan struct{})
	var arrivals chan time.Time
	if d.cfg.rate > 0 {
		arrivals = make(chan time.Time, 1<<16)
		go func() {
			// Batch arrivals per tick, scaled by the measured time since
			// the previous fire: per-arrival tickers undershoot badly at
			// sub-millisecond intervals, and tickers coalesce fires under
			// coarse timers, so wall-clock elapsed is the only honest
			// arrival budget.
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			last := time.Now()
			carry := 0.0
			for {
				select {
				case <-stop:
					return
				case t := <-tick.C:
					carry += d.cfg.rate * t.Sub(last).Seconds()
					last = t
					n := int(carry)
					carry -= float64(n)
					for i := 0; i < n; i++ {
						select {
						case arrivals <- t:
						default: // queue full; drop to keep the driver honest
						}
					}
				}
			}
		}()
	}

	// One immutable CDF shared by every worker; each draws with its own rng.
	var zipf *zipfSampler
	if d.cfg.zipfS > 0 {
		zipf = newZipfSampler(d.cfg.keys, d.cfg.zipfS)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		cl := clients[w%len(clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.cfg.seed + int64(w)*6151 + int64(workers)))
			for {
				var issued time.Time
				if arrivals != nil {
					select {
					case <-stop:
						return
					case issued = <-arrivals:
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
					issued = time.Now()
				}
				// Sampled before issuing, so an op straddling the warm-up
				// boundary is never half-counted.
				record := measuring.Load()
				if err := d.op(cl, rng, zipf, w, workers); err != nil {
					if errors.Is(err, tkv.ErrBackpressure) {
						// Explicit backpressure is the server working as
						// designed under overload, not a failure; it is
						// counted on its own so error rows stay honest.
						d.shedSeen.Add(1)
						if record {
							sheds.Add(1)
						}
					} else if record {
						errs.Add(1)
					}
				} else if record {
					ops.Add(1)
				}
				if record {
					cell.hist.ObserveDuration(time.Since(issued))
				}
			}
		}()
	}
	time.Sleep(d.cfg.warmup)
	measuring.Store(true)
	measureStart := time.Now()
	time.Sleep(d.cfg.dur)
	close(stop)
	wg.Wait()
	cell.elapsed = time.Since(measureStart)
	cell.ops = ops.Load()
	cell.errs = errs.Load()
	cell.sheds = sheds.Load()
	return cell
}

// counterKey picks a counter key, honoring the configured skew.
func (d *driver) counterKey(rng *rand.Rand, zipf *zipfSampler) uint64 {
	if zipf != nil {
		return zipf.rank(rng)
	}
	return uint64(rng.Intn(d.cfg.keys))
}

// op issues one operation of the mix through cl. w and workers identify the
// worker and the cell's worker count, which locate the worker's private key
// slice under -overlap < 1.
func (d *driver) op(cl kvClient, rng *rand.Rand, zipf *zipfSampler, w, workers int) error {
	if rng.Float64() < d.cfg.readFrac {
		if d.cfg.mgetFrac > 0 && rng.Float64() < d.cfg.mgetFrac {
			return d.mget(cl, rng, zipf)
		}
		if rng.Intn(2) == 0 {
			_, _, err := cl.get(d.counterKey(rng, zipf))
			return err
		}
		return d.getBlob(cl, rng)
	}
	if rng.Float64() < d.cfg.batchFrac {
		return d.batch(cl, rng, zipf, w, workers)
	}
	if d.cfg.addFrac > 0 && rng.Float64() < d.cfg.addFrac {
		// A server-side add is the leanest transactional increment: one
		// STM transaction per op on a skew-drawn counter key — the
		// single-key hot write the admission layer routes and sheds.
		if err := cl.add(d.counterKey(rng, zipf), 1); err != nil {
			return err
		}
		d.serverAdds.Add(1)
		return nil
	}
	switch rng.Intn(5) {
	case 0, 1:
		return d.casIncrement(cl, rng, zipf)
	case 2, 3:
		key := blobBase + uint64(rng.Intn(d.cfg.blobs))
		return cl.put(key, fmt.Sprintf("%d:%d", key, rng.Int63()))
	default:
		return cl.del(blobBase + uint64(rng.Intn(d.cfg.blobs)))
	}
}

// batchKey picks one key for a batch op: with probability cfg.overlap from
// the whole counter space (honoring skew), otherwise uniformly from the
// worker's private slice of it — the knob that makes concurrent batches
// key-disjoint (-overlap 0) or maximally contended (-overlap 1).
func (d *driver) batchKey(rng *rand.Rand, zipf *zipfSampler, w, workers int) uint64 {
	if rng.Float64() < d.cfg.overlap {
		return d.counterKey(rng, zipf)
	}
	span := d.cfg.keys / workers
	if span == 0 {
		return d.counterKey(rng, zipf)
	}
	return uint64(w%workers*span + rng.Intn(span))
}

// casIncrement performs a client-side read-modify-write: read the counter,
// CAS it one higher, retry on interference.
func (d *driver) casIncrement(cl kvClient, rng *rand.Rand, zipf *zipfSampler) error {
	key := d.counterKey(rng, zipf)
	for attempt := 0; attempt < casAttempts; attempt++ {
		cur, found, err := cl.get(key)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("counter key %d missing", key)
		}
		n, err := strconv.ParseInt(cur, 10, 64)
		if err != nil {
			return fmt.Errorf("counter key %d holds %q", key, cur)
		}
		swapped, err := cl.cas(key, cur, strconv.FormatInt(n+1, 10))
		if err != nil {
			return err
		}
		if swapped {
			d.casIncrs.Add(1)
			return nil
		}
	}
	// The increment never succeeded; nothing was counted, so the
	// invariant is unaffected. Report it as an error observation.
	return fmt.Errorf("cas on key %d starved after %d attempts", key, casAttempts)
}

// batch issues one atomic batch of +1 increments: adds, with a -batchcas
// fraction of them as cas increments (read the counter, then cas it one
// higher inside the batch). Every op of an accepted batch increments its
// key by exactly 1, so the tally is the op count; a refused batch (some
// cas compare lost a race) wrote nothing and tallies zero.
func (d *driver) batch(cl kvClient, rng *rand.Rand, zipf *zipfSampler, w, workers int) error {
	ops := make([]tkv.Op, d.cfg.batchSize)
	for i := range ops {
		key := d.batchKey(rng, zipf, w, workers)
		if d.cfg.batchCAS > 0 && rng.Float64() < d.cfg.batchCAS {
			cur, found, err := cl.get(key)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("counter key %d missing", key)
			}
			n, err := strconv.ParseInt(cur, 10, 64)
			if err != nil {
				return fmt.Errorf("counter key %d holds %q", key, cur)
			}
			ops[i] = tkv.Op{Kind: tkv.OpCAS, Key: key, Old: cur, Value: strconv.FormatInt(n+1, 10)}
		} else {
			ops[i] = tkv.Op{Kind: tkv.OpAdd, Key: key, Delta: 1}
		}
	}
	mismatch, nres, err := cl.batch(ops)
	if err != nil {
		return err
	}
	if mismatch {
		d.batchCASMisses.Add(1)
		return nil
	}
	if nres != len(ops) {
		return fmt.Errorf("batch returned %d results for %d ops", nres, len(ops))
	}
	d.batchAdds.Add(uint64(len(ops)))
	return nil
}

// mget issues one batched multi-key read over the counter space and
// cross-checks that every found value is a well-formed counter.
func (d *driver) mget(cl kvClient, rng *rand.Rand, zipf *zipfSampler) error {
	keys := make([]uint64, d.cfg.batchSize)
	for i := range keys {
		keys[i] = d.counterKey(rng, zipf)
	}
	results, err := cl.mget(keys)
	if err != nil {
		return err
	}
	if len(results) != len(keys) {
		return fmt.Errorf("mget returned %d results for %d keys", len(results), len(keys))
	}
	for i, r := range results {
		if !r.Found {
			continue // not yet seeded in this cell
		}
		if _, err := strconv.ParseUint(r.Value, 10, 64); err != nil {
			return fmt.Errorf("mget counter key %d holds %q", keys[i], r.Value)
		}
	}
	return nil
}

// getBlob reads a random blob key and cross-checks that the value names the
// key it was stored under.
func (d *driver) getBlob(cl kvClient, rng *rand.Rand) error {
	key := blobBase + uint64(rng.Intn(d.cfg.blobs))
	val, found, err := cl.get(key)
	if err != nil {
		return err
	}
	if found && !strings.HasPrefix(val, fmt.Sprintf("%d:", key)) {
		d.blobCorrupt.Add(1)
		return fmt.Errorf("blob key %d holds foreign value %q", key, val)
	}
	return nil
}

// verify pulls a consistent snapshot and the server stats over the control
// client and checks the run's invariants. The returned summary is embedded
// in the -json artifact even when a check fails (with OK=false), so a
// broken run is recorded, not hidden.
func (d *driver) verify(out io.Writer) (*verifyJSON, error) {
	res := &verifyJSON{Increments: d.casIncrs.Load() + d.batchAdds.Load() + d.serverAdds.Load()}
	snap, err := d.control.snapshot()
	if err != nil {
		return res, fmt.Errorf("snapshot: %w", err)
	}
	var sum uint64
	for k := 0; k < d.cfg.keys; k++ {
		v, ok := snap[uint64(k)]
		if !ok {
			return res, fmt.Errorf("counter key %d vanished", k)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return res, fmt.Errorf("counter key %d holds %q", k, v)
		}
		sum += n
	}
	res.CounterSum = sum
	want := res.Increments
	stats, err := d.control.stats()
	if err != nil {
		return res, fmt.Errorf("stats: %w", err)
	}
	res.Commits = stats.Commits
	res.Aborts = stats.Aborts
	res.Serializations = stats.Serializations
	res.SchedConfirmed = stats.SchedConfirmed
	res.SchedRefuted = stats.SchedRefuted
	res.StripeWaits = stats.StripeWaitsShared + stats.StripeWaitsExcl
	res.ROFallbacks = stats.ROFallbacks
	res.ServerShed = stats.Shed
	res.ServerRouted = stats.Routed
	res.CASMismatches = d.batchCASMisses.Load()
	if ws := stats.Wal; ws != nil {
		res.WalMode = string(ws.Mode)
		res.WalGroupMean = ws.GroupMean
		res.WalFsyncP99us = ws.FsyncP99us
		res.WalDurableLag = ws.DurableLag()
		res.walAppends = ws.Appends
		res.walFsyncs = ws.Fsyncs
		fmt.Fprintf(out, "verify: wal mode=%s appends=%d fsyncs=%d group_mean=%.1f fsync_p99=%dµs durable_lag=%d sync=%v\n",
			ws.Mode, ws.Appends, ws.Fsyncs, ws.GroupMean, ws.FsyncP99us, res.WalDurableLag, ws.Sync)
	}
	fmt.Fprintf(out, "verify: committed=%d aborts=%d serializations=%d stripeWaits=%d roFallbacks=%d shed=%d routed=%d counterSum=%d increments=%d (cas=%d batchOps=%d adds=%d casMismatchedBatches=%d)\n",
		stats.Commits, stats.Aborts, stats.Serializations, res.StripeWaits, res.ROFallbacks,
		res.ServerShed, res.ServerRouted,
		sum, want, d.casIncrs.Load(), d.batchAdds.Load(), d.serverAdds.Load(), res.CASMismatches)
	if sum < want {
		return res, fmt.Errorf("LOST UPDATES: counters sum to %d but %d increments succeeded", sum, want)
	}
	if sum > want {
		// The opposite mismatch is a driver-side undercount: an
		// increment committed server-side but its response was lost
		// (timeout, reset), so it was tallied as an error instead.
		return res, fmt.Errorf("uncounted increments: counters sum to %d but only %d increments were acknowledged (a CAS/batch response was likely lost in flight)", sum, want)
	}
	if d.blobCorrupt.Load() > 0 {
		return res, fmt.Errorf("%d blob reads returned foreign values", d.blobCorrupt.Load())
	}
	if stats.Commits == 0 {
		return res, fmt.Errorf("server committed zero transactions")
	}
	res.OK = true
	fmt.Fprintln(out, "verify: OK (zero lost updates)")
	return res, nil
}

// ---- binary wire protocol client ----

// tcpKV adapts one pipelined tkvwire connection to the kvClient surface.
// Many workers share one tcpKV; the connection interleaves their requests.
type tcpKV struct {
	c *tkvwire.Conn
}

func (t *tcpKV) get(key uint64) (string, bool, error) { return t.c.Get(key) }

func (t *tcpKV) put(key uint64, val string) error {
	_, err := t.c.Put(key, val)
	return err
}

func (t *tcpKV) del(key uint64) error {
	_, err := t.c.Delete(key)
	return err
}

func (t *tcpKV) cas(key uint64, old, new string) (bool, error) {
	return t.c.CAS(key, old, new)
}

func (t *tcpKV) add(key uint64, delta int64) error {
	_, err := t.c.Add(key, delta)
	return err
}

func (t *tcpKV) mget(keys []uint64) ([]tkv.OpResult, error) { return t.c.MGet(keys) }

func (t *tcpKV) batch(ops []tkv.Op) (bool, int, error) {
	results, err := t.c.Batch(ops)
	if errors.Is(err, tkv.ErrCASMismatch) {
		return true, len(results), nil
	}
	if err != nil {
		return false, 0, err
	}
	return false, len(results), nil
}

func (t *tcpKV) snapshot() (map[uint64]string, error) { return t.c.Snapshot() }

func (t *tcpKV) stats() (tkv.Stats, error) { return t.c.Stats() }

// ---- in-process client (sched sweep) ----

// localKV drives a self-hosted store directly; the sched sweep uses it for
// seeding and verification so those never ride the protocol under test.
type localKV struct {
	st *tkv.Store
}

func (l *localKV) get(key uint64) (string, bool, error) { return l.st.Get(key) }

func (l *localKV) put(key uint64, val string) error {
	_, err := l.st.Put(key, val)
	return err
}

func (l *localKV) del(key uint64) error {
	_, err := l.st.Delete(key)
	return err
}

func (l *localKV) cas(key uint64, old, new string) (bool, error) {
	return l.st.CAS(key, old, new)
}

func (l *localKV) add(key uint64, delta int64) error {
	_, err := l.st.Add(key, delta)
	return err
}

func (l *localKV) mget(keys []uint64) ([]tkv.OpResult, error) { return l.st.MGet(keys) }

func (l *localKV) batch(ops []tkv.Op) (bool, int, error) {
	results, err := l.st.Batch(ops)
	if errors.Is(err, tkv.ErrCASMismatch) {
		return true, len(results), nil
	}
	if err != nil {
		return false, 0, err
	}
	return false, len(results), nil
}

func (l *localKV) snapshot() (map[uint64]string, error) { return l.st.Snapshot() }

func (l *localKV) stats() (tkv.Stats, error) { return l.st.Stats(), nil }

// ---- HTTP client ----

// wire is a pooled response-read buffer: the driver's own per-response
// decoder allocations shouldn't pollute the latency it is measuring. Only
// the response side is pooled — a response body is fully drained
// synchronously inside do() before the buffer is reused, whereas a pooled
// *request* body would race with the transport's background write loop
// whenever the server answers before reading the whole body (early non-200,
// reset), so request bodies stay freshly allocated per call.
type wire struct {
	resp bytes.Buffer
}

var wirePool = sync.Pool{New: func() any { return new(wire) }}

// httpKV drives the HTTP/JSON surface through a pooled http.Client. It is
// also the run's control client: seeding and verification always go over
// HTTP regardless of the measured protocol.
type httpKV struct {
	base   string
	client *http.Client
}

func (h *httpKV) get(key uint64) (string, bool, error) {
	resp, err := h.client.Get(fmt.Sprintf("%s/kv/%d", h.base, key))
	if err != nil {
		return "", false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return "", false, nil
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return "", false, fmt.Errorf("GET key %d: %w", key, tkv.ErrBackpressure)
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("GET key %d: status %d", key, resp.StatusCode)
	}
	w := wirePool.Get().(*wire)
	defer wirePool.Put(w)
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return "", false, err
	}
	var body struct {
		Value string `json:"value"`
	}
	if err := json.Unmarshal(w.resp.Bytes(), &body); err != nil {
		return "", false, err
	}
	return body.Value, true, nil
}

func (h *httpKV) put(key uint64, val string) error {
	b, err := json.Marshal(map[string]string{"value": val})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/kv/%d", h.base, key), bytes.NewReader(b))
	if err != nil {
		return err
	}
	return h.do(req, nil, nil)
}

func (h *httpKV) del(key uint64) error {
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/kv/%d", h.base, key), nil)
	if err != nil {
		return err
	}
	return h.do(req, nil, nil)
}

func (h *httpKV) cas(key uint64, old, new string) (bool, error) {
	var resp struct {
		Swapped bool `json:"swapped"`
	}
	err := h.postJSON("/cas", map[string]any{"key": key, "old": old, "new": new}, &resp)
	return resp.Swapped, err
}

func (h *httpKV) add(key uint64, delta int64) error {
	var resp struct {
		Value int64 `json:"value"`
	}
	return h.postJSON("/add", map[string]any{"key": key, "delta": delta}, &resp)
}

func (h *httpKV) mget(keys []uint64) ([]tkv.OpResult, error) {
	var resp struct {
		Results []tkv.OpResult `json:"results"`
	}
	if err := h.postJSON("/mget", map[string]any{"keys": keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// batch posts a batch, distinguishing acceptance (200, returns the result
// count) from a whole-batch cas mismatch (409 with casMismatch set; nothing
// was written).
func (h *httpKV) batch(ops []tkv.Op) (mismatch bool, nres int, err error) {
	b, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return false, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+"/batch", bytes.NewReader(b))
	if err != nil {
		return false, 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return false, 0, fmt.Errorf("POST /batch: %w", tkv.ErrBackpressure)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return false, 0, fmt.Errorf("POST /batch: status %d", resp.StatusCode)
	}
	w := wirePool.Get().(*wire)
	defer wirePool.Put(w)
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return false, 0, err
	}
	var body struct {
		Results     []tkv.OpResult `json:"results"`
		CASMismatch bool           `json:"casMismatch"`
	}
	if err := json.Unmarshal(w.resp.Bytes(), &body); err != nil {
		return false, 0, err
	}
	if resp.StatusCode == http.StatusConflict {
		if !body.CASMismatch {
			return false, 0, fmt.Errorf("POST /batch: 409 without casMismatch")
		}
		return true, len(body.Results), nil
	}
	return false, len(body.Results), nil
}

func (h *httpKV) snapshot() (map[uint64]string, error) {
	snap := map[uint64]string{}
	if err := h.getJSON("/snapshot", &snap); err != nil {
		return nil, err
	}
	return snap, nil
}

func (h *httpKV) stats() (tkv.Stats, error) {
	var stats tkv.Stats
	err := h.getJSON("/stats", &stats)
	return stats, err
}

func (h *httpKV) postJSON(path string, body, into any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	return h.do(req, nil, into)
}

func (h *httpKV) getJSON(path string, into any) error {
	req, err := http.NewRequest(http.MethodGet, h.base+path, nil)
	if err != nil {
		return err
	}
	return h.do(req, nil, into)
}

// do sends req and decodes the response into `into` (when non-nil) via w's
// response buffer; a nil w borrows one from the pool.
func (h *httpKV) do(req *http.Request, w *wire, into any) error {
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The server shed the request under overload: surface the same
		// sentinel the in-process and binary-protocol paths produce.
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, tkv.ErrBackpressure)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if into == nil {
		return nil
	}
	if w == nil {
		w = wirePool.Get().(*wire)
		defer wirePool.Put(w)
	}
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return err
	}
	return json.Unmarshal(w.resp.Bytes(), into)
}
