package main

// Load + verify, the default scenario: seed the counters, drive the mix,
// print one result line, check that no acknowledged increment is missing.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
	"github.com/shrink-tm/shrink/internal/trace"
)

// blobBase offsets the blob key region away from the counter keys.
const blobBase = uint64(1) << 32

// casAttempts bounds one CAS increment's retry loop.
const casAttempts = 64

// loadConfig is the run's target and workload shape, as the flags gave it.
type loadConfig struct {
	url, tcpaddr, proto string
	conns, pipeline     int
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
	minShed             uint64
	verify              bool
}

// driver owns the workload configuration and the increment tally. Seeding
// and verification always run over the HTTP control client; the measured
// traffic goes through whatever kvClient -proto dictates.
type driver struct {
	control *httpKV
	cfg     loadConfig

	// Successful transactional increments; the final counter sum must equal
	// their total.
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

func runLoad(cfg loadConfig, out io.Writer) error {
	if cfg.url == "" {
		return fmt.Errorf("-url is required")
	}
	// Workers share connections on tcp, -pipeline of them per connection.
	workers := cfg.conns
	switch cfg.proto {
	case protoHTTP:
	case protoTCP:
		if cfg.tcpaddr == "" {
			return fmt.Errorf("-tcpaddr is required by -proto tcp")
		}
		workers *= cfg.pipeline
	default:
		return fmt.Errorf("unknown protocol %q (want http or tcp)", cfg.proto)
	}
	// Disjoint batch keys need a non-empty private slice per worker;
	// silently degrading to the shared space would corrupt the overlap
	// comparison the flag exists for.
	if cfg.overlap < 1 && cfg.keys/workers == 0 {
		return fmt.Errorf("-overlap %g needs -keys >= workers (got %d keys, %d workers)",
			cfg.overlap, cfg.keys, workers)
	}

	client := newHTTPClient(cfg.conns, 30*time.Second)
	defer client.CloseIdleConnections()
	d := &driver{cfg: cfg, control: &httpKV{base: cfg.url, client: client}}
	if err := d.seedCounters(); err != nil {
		return err
	}

	// HTTP workers share the pooled http.Client; tcp workers share the
	// pipelined connections.
	clients := []kvClient{d.control}
	if cfg.proto == protoTCP {
		clients = clients[:0]
		for i := 0; i < cfg.conns; i++ {
			c, err := tkvwire.Dial(cfg.tcpaddr)
			if err != nil {
				return fmt.Errorf("tcp setup (%d conns): %w", cfg.conns, err)
			}
			defer c.Close()
			clients = append(clients, &tcpKV{c: c})
		}
	}
	res := d.drive(clients, workers)

	mode := "closed-loop"
	if cfg.rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s", cfg.rate)
	}
	fmt.Fprintf(out, "tkvload: proto=%s conns=%d workers=%d %s: %.0f ops/s p50=%dµs p95=%dµs p99=%dµs errors=%d sheds=%d",
		cfg.proto, cfg.conns, workers, mode, float64(res.ops)/res.elapsed.Seconds(),
		res.hist.Quantile(0.50), res.hist.Quantile(0.95), res.hist.Quantile(0.99), res.errs, res.sheds)
	if cfg.proto == protoTCP {
		// Transport writes per request: how many pipelined callers shared
		// each write syscall (1.00 = none did).
		var sends tkvwire.ConnStats
		for _, cl := range clients {
			st := cl.(*tcpKV).c.WireStats()
			sends.Calls += st.Calls
			sends.Flushes += st.Flushes
		}
		fmt.Fprintf(out, " flushes/call=%.2f", float64(sends.Flushes)/float64(sends.Calls))
	}
	fmt.Fprintln(out)

	if cfg.verify {
		if err := d.verify(out); err != nil {
			return err
		}
	}
	if shed := d.shedSeen.Load(); shed < cfg.minShed {
		return fmt.Errorf("backpressure expected: %d requests shed, -minshed %d", shed, cfg.minShed)
	}
	return nil
}

// seedCounters writes "0" to every counter key over the control client so
// CAS loops always find a value. A shedding server (tkvd -admit in drill
// mode, as the backpressure drill runs it) rejects writes probabilistically,
// so each key retries through backpressure; any other error is fatal
// immediately.
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

// loadResult is what the measured part of the run observed.
type loadResult struct {
	ops     uint64
	errs    uint64
	sheds   uint64
	elapsed time.Duration
	hist    *trace.Histogram
}

// zipfSampler draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s, for
// any s > 0. rand.NewZipf only accepts s > 1 (its rejection sampler needs a
// convergent tail) and the skews worth driving (0.6..1.2) span both sides of
// 1, so this uses an explicit CDF over the bounded key space — exact for any
// positive s, and a cheap binary search per draw at the key counts tkvload
// uses. The table is immutable after construction and safe to share across
// workers.
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

// drive runs the load: cfg.warmup of unmeasured ramp-up, then cfg.dur of
// measured traffic over the given workers. Worker w issues through
// clients[w%len(clients)]. In open-loop mode arrivals are generated at
// cfg.rate regardless of completion, so latency includes queueing delay —
// the serving regime the paper's overload figures are about. (Arrival
// timestamps have the generator's 5ms tick granularity, which bounds the
// latency resolution in that mode.)
func (d *driver) drive(clients []kvClient, workers int) loadResult {
	res := loadResult{hist: &trace.Histogram{}}
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
					res.hist.ObserveDuration(time.Since(issued))
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
	res.elapsed = time.Since(measureStart)
	res.ops = ops.Load()
	res.errs = errs.Load()
	res.sheds = sheds.Load()
	return res
}

// counterKey picks a counter key, honoring the configured skew.
func (d *driver) counterKey(rng *rand.Rand, zipf *zipfSampler) uint64 {
	if zipf != nil {
		return zipf.rank(rng)
	}
	return uint64(rng.Intn(d.cfg.keys))
}

// op issues one operation of the mix through cl. w and workers identify the
// worker and the run's worker count, which locate the worker's private key
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
			continue
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
// client and checks the run's invariants.
func (d *driver) verify(out io.Writer) error {
	want := d.casIncrs.Load() + d.batchAdds.Load() + d.serverAdds.Load()
	snap, err := d.control.snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var sum uint64
	for k := 0; k < d.cfg.keys; k++ {
		v, ok := snap[uint64(k)]
		if !ok {
			return fmt.Errorf("counter key %d vanished", k)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("counter key %d holds %q", k, v)
		}
		sum += n
	}
	stats, err := d.control.stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if ws := stats.Wal; ws != nil {
		fmt.Fprintf(out, "verify: wal mode=%s appends=%d fsyncs=%d group_mean=%.1f fsync_p99=%dµs durable_lag=%d sync=%v\n",
			ws.Mode, ws.Appends, ws.Fsyncs, ws.GroupMean, ws.FsyncP99us, ws.DurableLag(), ws.Sync)
	}
	fmt.Fprintf(out, "verify: committed=%d aborts=%d serializations=%d stripeWaits=%d roFallbacks=%d shed=%d routed=%d counterSum=%d increments=%d (cas=%d batchOps=%d adds=%d casMismatchedBatches=%d)\n",
		stats.Commits, stats.Aborts, stats.Serializations, stats.StripeWaitsShared+stats.StripeWaitsExcl, stats.ROFallbacks,
		stats.Shed, stats.Routed,
		sum, want, d.casIncrs.Load(), d.batchAdds.Load(), d.serverAdds.Load(), d.batchCASMisses.Load())
	if sum < want {
		return fmt.Errorf("LOST UPDATES: counters sum to %d but %d increments succeeded", sum, want)
	}
	if sum > want {
		// The opposite mismatch is a driver-side undercount: an
		// increment committed server-side but its response was lost
		// (timeout, reset), so it was tallied as an error instead.
		return fmt.Errorf("uncounted increments: counters sum to %d but only %d increments were acknowledged (a CAS/batch response was likely lost in flight)", sum, want)
	}
	if d.blobCorrupt.Load() > 0 {
		return fmt.Errorf("%d blob reads returned foreign values", d.blobCorrupt.Load())
	}
	if stats.Commits == 0 {
		return fmt.Errorf("server committed zero transactions")
	}
	fmt.Fprintln(out, "verify: OK (zero lost updates)")
	return nil
}
