package main

// The load driver every scenario runs, and load + verify, the default
// scenario: seed the counters, drive the mix, print one result line, judge.

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

// errReply marks what an op found wrong in a reply that arrived, or a CAS
// loop that starved: unlike a transport error it keeps the connection.
var errReply = errors.New("reply")

// loadConfig is the run's target and workload shape, as the flags gave it.
type loadConfig struct {
	tcpaddr             string
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
}

// driver runs the workload from start to stop over cfg.conns connections to
// a target a drill can move, and records every acknowledged increment.
type driver struct {
	cfg     loadConfig
	workers int          // cfg.conns × cfg.pipeline
	zipf    *zipfSampler // nil: uniform counter keys
	target  atomic.Pointer[string]
	slots   []connSlot // worker w issues through slots[w%len(slots)]
	acks    *ledger

	stopc     chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	arrivals  chan time.Time // open loop only
	measuring atomic.Bool
	start     time.Time         // of the measured window
	sent      tkvwire.ConnStats // before it
	// Counted inside the measured window only.
	ops, errs, sheds atomic.Uint64
	hist             trace.Histogram
	// Counted across warm-up and measurement alike.
	shedSeen       atomic.Uint64 // backpressure rejections (-minshed is about the whole run)
	batchCASMisses atomic.Uint64 // batches refused whole for a cas mismatch: no increment, no error
	blobCorrupt    atomic.Uint64 // blob reads whose value named another key
}

func newDriver(cfg loadConfig, addr string, phases ...string) *driver {
	d := &driver{cfg: cfg, workers: cfg.conns * cfg.pipeline, slots: make([]connSlot, cfg.conns),
		acks: newLedger(cfg.keys, phases...), stopc: make(chan struct{})}
	d.target.Store(&addr) // a drill moves it
	if cfg.zipfS > 0 {
		d.zipf = newZipfSampler(cfg.keys, cfg.zipfS)
	}
	return d
}

// seed writes "0" to every counter key at the target. A shedding server
// (tkvd -admit in drill mode) rejects writes probabilistically, so each key
// retries through backpressure; any other error is fatal at once.
func (d *driver) seed() error {
	c, err := tkvwire.Dial(*d.target.Load())
	if err != nil {
		return err
	}
	defer c.Close()
	for k := 0; k < d.cfg.keys; k++ {
		for attempt := 1; ; attempt++ {
			_, err := c.Put(uint64(k), "0")
			if err == nil {
				break
			}
			if !errors.Is(err, tkv.ErrBackpressure) || attempt == 200 {
				return fmt.Errorf("seeding counter %d: %w", k, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// snapshot takes one consistent snapshot of the target, then its stats.
func (d *driver) snapshot() (map[uint64]string, tkv.Stats, error) {
	c, err := tkvwire.Dial(*d.target.Load())
	if err != nil {
		return nil, tkv.Stats{}, err
	}
	defer c.Close()
	snap, err := c.Snapshot()
	if err != nil {
		return nil, tkv.Stats{}, fmt.Errorf("snapshot: %w", err)
	}
	stats, err := c.Stats()
	if err != nil {
		return nil, tkv.Stats{}, fmt.Errorf("stats: %w", err)
	}
	return snap, stats, nil
}

// connSlot is one connection, shared by the workers that issue through it
// and redialed at the current target after a transport error.
type connSlot struct {
	mu   sync.Mutex
	live *tkvwire.Conn   // nil after a transport error
	all  []*tkvwire.Conn // every connection dialed, for the send counters
}

func (s *connSlot) conn(addr string) (*tkvwire.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live == nil {
		c, err := tkvwire.Dial(addr)
		if err != nil {
			return nil, err
		}
		s.live, s.all = c, append(s.all, c)
	}
	return s.live, nil
}

// drop closes c unless another worker on the slot already replaced it.
func (s *connSlot) drop(c *tkvwire.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live == c {
		s.live = nil
		c.Close()
	}
}

// sends sums the wire calls and flushes of every connection dialed, and
// with andClose closes them.
func (d *driver) sends(andClose bool) (s tkvwire.ConnStats) {
	for i := range d.slots {
		sl := &d.slots[i]
		sl.mu.Lock()
		for _, c := range sl.all {
			cs := c.WireStats()
			s.Calls, s.Flushes = s.Calls+cs.Calls, s.Flushes+cs.Flushes
			if andClose {
				c.Close()
			}
		}
		sl.mu.Unlock()
	}
	return s
}

func runLoad(cfg loadConfig, out io.Writer) error {
	if cfg.tcpaddr == "" {
		return fmt.Errorf("-tcpaddr is required")
	}
	d := newDriver(cfg, cfg.tcpaddr, "during the run")
	// Disjoint batch keys need a non-empty private slice per worker;
	// silently degrading to the shared space would corrupt the overlap
	// comparison the flag exists for.
	if cfg.overlap < 1 && cfg.keys/d.workers == 0 {
		return fmt.Errorf("-overlap %g needs -keys >= workers (got %d keys, %d workers)",
			cfg.overlap, cfg.keys, d.workers)
	}
	if err := d.seed(); err != nil {
		return err
	}
	d.run()
	time.Sleep(cfg.warmup)
	d.measure()
	time.Sleep(cfg.dur)
	elapsed, sends := d.stop()

	mode := "closed-loop"
	if cfg.rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s", cfg.rate)
	}
	// An op is one operation of the mix (a CAS increment is one op however
	// many get+cas rounds it took); a request is one wire call. Flushes per
	// call is how many pipelined callers shared each write syscall (1.00 =
	// none did).
	secs := elapsed.Seconds()
	fmt.Fprintf(out, "tkvload: conns=%d workers=%d %s: %.0f ops/s %.0f req/s p50=%dµs p95=%dµs p99=%dµs errors=%d sheds=%d flushes/call=%.2f\n",
		cfg.conns, d.workers, mode, float64(d.ops.Load())/secs, float64(sends.Calls)/secs,
		d.hist.Quantile(0.50), d.hist.Quantile(0.95), d.hist.Quantile(0.99), d.errs.Load(), d.sheds.Load(),
		float64(sends.Flushes)/float64(sends.Calls))

	if err := d.verify(out); err != nil {
		return err
	}
	if shed := d.shedSeen.Load(); shed < cfg.minShed {
		return fmt.Errorf("backpressure expected: %d requests shed, -minshed %d", shed, cfg.minShed)
	}
	return nil
}

// zipfSampler draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s, for
// any s > 0, from an explicit CDF over the bounded key space: rand.NewZipf
// only accepts s > 1, and the skews worth driving (0.6..1.2) span both sides
// of 1. Immutable after construction, so workers share it.
type zipfSampler struct{ cdf []float64 }

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

// run launches the workers, and in open-loop mode the arrivals: generated
// at cfg.rate regardless of completion, so latency includes queueing delay —
// the serving regime the paper's overload figures are about — at the
// generator's 5ms tick granularity.
func (d *driver) run() {
	if d.cfg.rate > 0 {
		d.arrivals = make(chan time.Time, 1<<16)
		d.wg.Add(1)
		go d.arrive()
	}
	for w := 0; w < d.workers; w++ {
		d.wg.Add(1)
		go d.work(&worker{driver: d, id: w,
			rng: rand.New(rand.NewSource(d.cfg.seed + int64(w)*6151 + int64(d.workers)))})
	}
}

// arrive feeds the open loop until stop. It batches arrivals per tick,
// scaled by the measured time since the previous fire: per-arrival tickers
// undershoot badly at sub-millisecond intervals, and tickers coalesce fires
// under coarse timers, so wall-clock elapsed is the only honest budget.
func (d *driver) arrive() {
	defer d.wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	last, carry := time.Now(), 0.0
	for {
		select {
		case <-d.stopc:
			return
		case t := <-tick.C:
			carry += d.cfg.rate * t.Sub(last).Seconds()
			last = t
			n := int(carry)
			carry -= float64(n)
			for i := 0; i < n; i++ {
				select {
				case d.arrivals <- t:
				default: // queue full; drop to keep the driver honest
				}
			}
		}
	}
}

// measure opens the window the result line counts, which stop closes.
func (d *driver) measure() {
	d.start, d.sent = time.Now(), d.sends(false)
	d.measuring.Store(true)
}

// stop halts the workers, closes their connections and returns the measured
// window's length and wire sends. A drill defers it for its error paths.
func (d *driver) stop() (time.Duration, tkvwire.ConnStats) {
	d.stopOnce.Do(func() { close(d.stopc) })
	d.wg.Wait()
	end := d.sends(true)
	return time.Since(d.start), tkvwire.ConnStats{Calls: end.Calls - d.sent.Calls, Flushes: end.Flushes - d.sent.Flushes}
}

// worker is one issuing goroutine.
type worker struct {
	*driver
	id    int
	rng   *rand.Rand
	c     *tkvwire.Conn // the connection the current op issues on
	phase int           // the drill phase the current op was issued in
}

// work issues ops until stop. A transport error (the server died or is
// shutting down) drops the connection, and the next op dials the current
// target; a status reply (not primary, backpressure) keeps it. After a
// failure other than backpressure the worker pauses briefly.
func (d *driver) work(w *worker) {
	defer d.wg.Done()
	slot := &d.slots[w.id%len(d.slots)]
	for {
		var issued time.Time
		if d.arrivals != nil {
			select {
			case <-d.stopc:
				return
			case issued = <-d.arrivals:
			}
		} else {
			select {
			case <-d.stopc:
				return
			default:
			}
			issued = time.Now()
		}
		// Sampled before issuing, so an op straddling the warm-up
		// boundary is never half-counted.
		record := d.measuring.Load()
		c, err := slot.conn(*d.target.Load())
		if err == nil {
			// The phase is read once the connection is in hand, so an op
			// on one dialed after a kill or a promote counts after it.
			w.c, w.phase = c, int(d.acks.phase.Load())
			var status *tkvwire.StatusError
			if err = w.op(); err != nil && !errors.As(err, &status) && !errors.Is(err, errReply) {
				slot.drop(c)
			}
		}
		switch {
		case err == nil:
			if record {
				d.ops.Add(1)
			}
		case errors.Is(err, tkv.ErrBackpressure):
			// The server working as designed under overload, counted on
			// its own so error rows stay honest.
			d.shedSeen.Add(1)
			if record {
				d.sheds.Add(1)
			}
		default:
			if record {
				d.errs.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if record {
			d.hist.ObserveDuration(time.Since(issued))
		}
	}
}

// counterKey picks a counter key, honoring the configured skew.
func (w *worker) counterKey() uint64 {
	if w.zipf != nil {
		return w.zipf.rank(w.rng)
	}
	return uint64(w.rng.Intn(w.cfg.keys))
}

// counter reads a counter key's value, as stored and as a number.
func (w *worker) counter(key uint64) (string, int64, error) {
	cur, found, err := w.c.Get(key)
	if err != nil {
		return "", 0, err
	}
	n, perr := strconv.ParseInt(cur, 10, 64)
	if !found || perr != nil {
		return "", 0, fmt.Errorf("%w: counter key %d holds %q (found: %v)", errReply, key, cur, found)
	}
	return cur, n, nil
}

// op issues one operation of the mix.
func (w *worker) op() error {
	rng := w.rng
	if rng.Float64() < w.cfg.readFrac {
		if w.cfg.mgetFrac > 0 && rng.Float64() < w.cfg.mgetFrac {
			return w.mget()
		}
		if rng.Intn(2) == 0 {
			_, _, err := w.c.Get(w.counterKey())
			return err
		}
		return w.getBlob()
	}
	if rng.Float64() < w.cfg.batchFrac {
		return w.batch()
	}
	if w.cfg.addFrac > 0 && rng.Float64() < w.cfg.addFrac {
		// The leanest transactional increment: one STM transaction on a
		// skew-drawn key, the single-key hot write admission sheds.
		key := w.counterKey()
		n, err := w.c.Add(key, 1)
		if err == nil {
			w.acks.record(key, n, w.phase)
		}
		return err
	}
	switch rng.Intn(5) {
	case 0, 1:
		return w.casIncrement()
	case 2, 3:
		key := blobBase + uint64(rng.Intn(w.cfg.blobs))
		_, err := w.c.Put(key, fmt.Sprintf("%d:%d", key, rng.Int63()))
		return err
	default:
		_, err := w.c.Delete(blobBase + uint64(rng.Intn(w.cfg.blobs)))
		return err
	}
}

// batchKey picks one key for a batch op: with probability cfg.overlap from
// the whole counter space (honoring skew), otherwise uniformly from the
// worker's private slice of it — the knob that makes concurrent batches
// key-disjoint (-overlap 0) or maximally contended (-overlap 1).
func (w *worker) batchKey() uint64 {
	span := w.cfg.keys / w.workers
	if w.rng.Float64() < w.cfg.overlap || span == 0 {
		return w.counterKey()
	}
	return uint64(w.id*span + w.rng.Intn(span))
}

// casIncrement performs a client-side read-modify-write: read the counter,
// CAS it one higher, retry on interference.
func (w *worker) casIncrement() error {
	key := w.counterKey()
	for attempt := 0; attempt < casAttempts; attempt++ {
		cur, n, err := w.counter(key)
		if err != nil {
			return err
		}
		swapped, err := w.c.CAS(key, cur, strconv.FormatInt(n+1, 10))
		if err != nil {
			return err
		}
		if swapped {
			w.acks.record(key, n+1, w.phase)
			return nil
		}
	}
	return fmt.Errorf("%w: cas on key %d starved after %d attempts", errReply, key, casAttempts)
}

// batch issues one atomic batch of +1 increments: adds, with a -batchcas
// fraction of them as cas increments (read the counter, then cas it one
// higher inside the batch). Every op of an accepted batch acks the value it
// produced; a refused batch (some cas compare lost a race) wrote nothing.
func (w *worker) batch() error {
	ops := make([]tkv.Op, w.cfg.batchSize)
	for i := range ops {
		key := w.batchKey()
		if w.cfg.batchCAS > 0 && w.rng.Float64() < w.cfg.batchCAS {
			cur, n, err := w.counter(key)
			if err != nil {
				return err
			}
			ops[i] = tkv.Op{Kind: tkv.OpCAS, Key: key, Old: cur, Value: strconv.FormatInt(n+1, 10)}
		} else {
			ops[i] = tkv.Op{Kind: tkv.OpAdd, Key: key, Delta: 1}
		}
	}
	results, err := w.c.Batch(ops)
	if errors.Is(err, tkv.ErrCASMismatch) {
		w.batchCASMisses.Add(1)
		return nil
	}
	if err != nil {
		return err
	}
	if len(results) != len(ops) {
		return fmt.Errorf("%w: batch returned %d results for %d ops", errReply, len(results), len(ops))
	}
	for i, op := range ops {
		v := op.Value // a cas op's new value
		if op.Kind == tkv.OpAdd {
			v = results[i].Value
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%w: batch op on key %d acked with %q", errReply, op.Key, v)
		}
		w.acks.record(op.Key, n, w.phase)
	}
	return nil
}

// mget issues one batched multi-key read over the counter space and
// cross-checks that every found value is a well-formed counter.
func (w *worker) mget() error {
	keys := make([]uint64, w.cfg.batchSize)
	for i := range keys {
		keys[i] = w.counterKey()
	}
	results, err := w.c.MGet(keys)
	if err != nil {
		return err
	}
	if len(results) != len(keys) {
		return fmt.Errorf("%w: mget returned %d results for %d keys", errReply, len(results), len(keys))
	}
	for i, r := range results {
		if _, err := strconv.ParseUint(r.Value, 10, 64); r.Found && err != nil {
			return fmt.Errorf("%w: mget counter key %d holds %q", errReply, keys[i], r.Value)
		}
	}
	return nil
}

// getBlob reads a random blob key and cross-checks that the value names the
// key it was stored under.
func (w *worker) getBlob() error {
	key := blobBase + uint64(w.rng.Intn(w.cfg.blobs))
	val, found, err := w.c.Get(key)
	if err != nil {
		return err
	}
	if found && !strings.HasPrefix(val, fmt.Sprintf("%d:", key)) {
		w.blobCorrupt.Add(1)
		return fmt.Errorf("%w: blob key %d holds foreign value %q", errReply, key, val)
	}
	return nil
}

// verify is load + verify's verdict, plus the server's stats: no blob read
// returned another key's value, and some transaction committed.
func (d *driver) verify(out io.Writer) error {
	snap, stats, err := d.snapshot()
	if err != nil {
		return err
	}
	acked, sum, verdict := d.acks.verdict(snap, false)
	if ws := stats.Wal; ws != nil {
		fmt.Fprintf(out, "verify: wal appends=%d fsyncs=%d group_mean=%.1f fsync_p99=%dµs durable_lag=%d sync=%v\n",
			ws.Appends, ws.Fsyncs, ws.GroupMean, ws.FsyncP99us, ws.DurableLag(), ws.Sync)
	}
	fmt.Fprintf(out, "verify: committed=%d aborts=%d serializations=%d gateWaits=%d roFallbacks=%d shed=%d warmed=%d counterSum=%d increments=%d casMismatchedBatches=%d\n",
		stats.Commits, stats.Aborts, stats.Serializations, stats.StripeWaitsShared+stats.StripeWaitsExcl, stats.ROFallbacks,
		stats.Shed, stats.Ops.Warmed, sum, acked, d.batchCASMisses.Load())
	switch {
	case verdict != nil:
		return verdict
	case d.blobCorrupt.Load() > 0:
		return fmt.Errorf("%d blob reads returned foreign values", d.blobCorrupt.Load())
	case stats.Commits == 0:
		return fmt.Errorf("server committed zero transactions")
	}
	fmt.Fprintln(out, "verify: OK (zero lost updates)")
	return nil
}
