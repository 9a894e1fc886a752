package main

import "time"

// env is what a run hands every workload.
type env struct {
	seed    uint64
	procs   int     // GOMAXPROCS, and the unit callers are counted in
	traced  bool    // callers keep a trace sample and a replay caller rides along
	smoke   bool    // tests: small key spaces, tiny warm-up
	warmOps int     // fixed warm-up op count, the last step of set-up
	dir     string  // scratch directory of this run, inside the checkout
	faults  *faults // where callers report op errors and wrong results
}

// workload is one scenario of the benchmark. A run calls setup, drives
// callers() through the timed phases, then verify; a traced run calls
// counters and layers in between. close releases everything.
type workload interface {
	// setup opens the system, preloads it, warms it up with env.warmOps
	// ops and notes the layers' counters, so that counters can report
	// what the timed phases alone did.
	setup() error
	callers() []caller
	// counters sets the per-layer metrics that are counts or ratios of
	// counts over the ops issued since setup.
	counters(values map[string]float64, ops float64)
	// layers replays the trace sample into the layers below the one the
	// callers drive and sets the per-layer timings.
	layers(lr *layerRun)
	// verify is the output check; an error fails the run. lr is nil on
	// an untraced run.
	verify(lr *layerRun) error
	close()
}

// traceSampleCap is how many sampled ops one caller keeps for replay.
const traceSampleCap = 2048

// warmUp runs n ops through the callers, split evenly.
func warmUp(callers []caller, n int) {
	forEachCaller(len(callers), func(i int) {
		for j := 0; j < n/len(callers); j++ {
			callers[i].do(nil)
		}
	})
}

// caller issues one generated op per do call and checks its result. It
// returns false when the op failed or was refused. With a span buffer the
// op is on the trace sample: the caller records the layer call as a span
// and keeps the op for replay.
type caller interface {
	do(sb *spanBuf) bool
}

// spec names a workload, says why it exists, and fixes everything about
// it that must not vary between runs.
type spec struct {
	name string
	why  string
	// pacedRate is the open-loop phase's total rate in ops/s: the largest
	// round rate at which the latency percentiles were still flat on the
	// host named in README.md when the benchmark was built (a fifth to a
	// half of the closed-loop median). It is a constant so that both sides
	// of a comparison are offered the same load.
	pacedRate float64
	spin      bool // one caller per processor, waiting for due times by spinning; otherwise callersPerProc each, parked on the pacer
	warmOps   int  // fixed warm-up op count, the last step of set-up
	make      func(e env) workload
}

var specs = []spec{
	{
		name:      "wire_read",
		why:       "95/5 get/put, uniform over 1M keys x 128 B via loopback tkvwire: the serving edge carries the time, data is far larger than CPU caches; traced run paced at 30000 ops/s",
		pacedRate: 30000,
		warmOps:   100000,
		make: func(e env) workload {
			keys := uint64(1000000)
			if e.smoke {
				keys = 20000
			}
			return newKVWorkload(e, kvShape{blobKeys: keys, wire: true, gen: func(c *kvCaller) kvOp {
				o := kvOp{kind: opGet, tag: c.nextTag()}
				if c.rng.intn(100) < 5 {
					o.kind = opPut
				}
				o.key = c.rng.intn(keys)
				return o
			}})
		},
	},
	{
		name:      "durable_write",
		why:       "80/15/5 put/add/delete, 100k keys, wire path, sync WAL (shared lane) on a modelled device whose Sync costs a fixed 500 us: group commit and the ack path carry the time; traced run paced at 4100 ops/s",
		pacedRate: 4100,
		warmOps:   6000,
		make: func(e env) workload {
			blobs, counters := uint64(85000), uint64(15000)
			if e.smoke {
				blobs, counters = 1700, 300
			}
			return newKVWorkload(e, kvShape{blobKeys: blobs, counterKeys: counters, wire: true, durable: true,
				gen: func(c *kvCaller) kvOp {
					o := kvOp{tag: c.nextTag()}
					switch p := c.rng.intn(100); {
					case p < 80:
						o.kind, o.key = opPut, c.rng.intn(blobs)
					case p < 95:
						o.kind, o.key, o.delta = opAdd, blobs+c.rng.intn(counters), int64(1+c.rng.intn(16))
					default:
						o.kind, o.key = opDelete, c.rng.intn(blobs)
					}
					return o
				}})
		},
	},
	{
		name:      "batch_contended",
		why:       "in-process tkv.Store under Shrink: 50% cross-shard batches of 8, 30% adds, 20% mgets of 8, zipf 1.1 over 4096 keys: stripes, planner, stm, sched hooks carry the time; traced run paced at 30000 ops/s",
		pacedRate: 30000,
		warmOps:   200000,
		make: func(e env) workload {
			// 4096 keys: 2048 counters and 512 groups of 4 tag keys, both
			// drawn zipf(1.1) by rank, so the hot counters and the hot
			// groups are where batches, adds and multi-gets collide.
			shape := kvShape{counterKeys: 2048, groups: 512, scheduler: "shrink"}
			zc, zg := newZipf(int(shape.counterKeys), 1.1), newZipf(int(shape.groups), 1.1)
			shape.gen = func(c *kvCaller) kvOp {
				o := kvOp{tag: c.nextTag()}
				switch p := c.rng.intn(100); {
				case p < 50:
					o.kind, o.key, o.delta = opBatch, zg.sample(&c.rng), int64(1+c.rng.intn(16))
					for i := range o.keys {
						if i < batchKeys-groupKeys {
							o.keys[i] = shape.counterKey(zc.sample(&c.rng))
						} else {
							o.keys[i] = shape.groupKey(o.key, i-(batchKeys-groupKeys))
						}
					}
				case p < 80:
					o.kind, o.key, o.delta = opAdd, shape.counterKey(zc.sample(&c.rng)), int64(1+c.rng.intn(16))
				default:
					o.kind = opMGet
					for i := range o.keys {
						if i%groupKeys == 0 {
							o.key = zg.sample(&c.rng)
						}
						o.keys[i] = shape.groupKey(o.key, i%groupKeys)
					}
				}
				return o
			}
			return newKVWorkload(e, shape)
		},
	},
	{
		name:      "stm_tree",
		why:       "stmds.RBTree on swiss (busy wait), no scheduler, 4096 keys, 80/10/10 lookup/insert/delete: only stm+stmds run, a wire, WAL, keylock or sched change must not move it; traced run paced at 100000 ops/s",
		pacedRate: 100000,
		spin:      true,
		warmOps:   1000000,
		make:      func(e env) workload { return newTreeWorkload(e) },
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// Run shape.
//
// The untraced run, whose numbers are the end-to-end metrics and carry
// bounds: set-up setupRepeats times (setup_s is the median), then a closed
// loop for all of -seconds, on ONE processor. The traced run, whose numbers
// are the per-layer metrics and carry none: set-up once, then 4/7 of
// -seconds in the closed loop and 3/7 in the paced open loop, on
// min(nproc, 4) processors.
//
// One processor, because that is what the host this runs on can repeat. It
// is a guest on a shared machine. With two processors every workload's
// throughput follows the cost of moving a cache line between them, which
// the neighbours set (a ping-pong between two goroutines read 118-296 ns
// per round trip from one half-second to the next): whole runs of the same
// binary differed by 13-17 % on every estimator tried, the fastest window
// included. With one processor nothing crosses, and what is left of the
// neighbours is one-sided: they slow a window or leave it alone. So the
// closed loop is cut into short windows and ops_s is the mean rate of the
// fastest quietShare of them, the processor at its undisturbed speed, which
// repeats to 1-5 %. What this cannot see is written down in README.md:
// contention between processors (the traced run's counters carry it) and
// work that comes in bursts between the fastest windows, garbage collection
// first of all (loadgen.ops_s_mean and proc.gc_cpu_frac carry it).
const (
	setupRepeats = 3
	closedWindow = 20 * time.Millisecond
	quietShare   = 0.02
)

// quietCount is how many of n windows count as the fastest.
func quietCount(n int) int { return max(int(quietShare*float64(n)), 1) }

// quietRate is the mean of the fastest quietShare of the window rates.
func quietRate(rates []float64) float64 {
	s := sortedCopy(rates)
	return mean(s[len(s)-quietCount(len(s)):])
}

// phaseDurations splits the traced run's -seconds between its closed loop
// (seconds) and its paced loop.
func phaseDurations(seconds float64) (closedS float64, paced time.Duration) {
	return seconds * 4 / 7, time.Duration(seconds * 3 / 7 * float64(time.Second))
}
