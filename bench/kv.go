package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/bench/benchfs"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// kvAPI is the store surface the three tkv workloads drive. *tkv.Store and
// *tkvwire.Conn both have it, which is what lets one generated op run over
// the wire and then again directly against the store.
type kvAPI interface {
	Get(key uint64) (string, bool, error)
	Put(key uint64, val string) (bool, error)
	Delete(key uint64) (bool, error)
	Add(key uint64, delta int64) (int64, error)
	Batch(ops []tkv.Op) ([]tkv.OpResult, error)
	MGet(keys []uint64) ([]tkv.OpResult, error)
}

const (
	opGet = iota
	opPut
	opDelete
	opAdd
	opBatch
	opMGet
)

// Batches and multi-gets span batchKeys keys; tag keys come in groups of
// groupKeys that only ever change together, which is what makes a torn
// read visible.
const (
	batchKeys = 8
	groupKeys = 4
)

// kvOp is one generated operation. For a batch, keys[:4] are counter keys
// that each get +delta and keys[4:] the tag keys of group key, all set to
// tag. For a multi-get, keys are the tag keys of two groups.
type kvOp struct {
	kind  uint8
	key   uint64
	tag   uint64
	delta int64
	keys  [batchKeys]uint64
}

// kvShape sizes one tkv workload and draws its ops.
type kvShape struct {
	blobKeys    uint64 // keys [0, blobKeys) hold 128-byte blobs
	counterKeys uint64 // the next counterKeys keys hold decimal counters
	groups      uint64 // then groups*groupKeys tag keys
	wire        bool   // callers go through loopback tkvwire
	durable     bool   // sync WAL on the modelled device, crash drill at the end
	scheduler   string
	gen         func(c *kvCaller) kvOp
}

func (s *kvShape) counterKey(i uint64) uint64 { return s.blobKeys + i }

func (s *kvShape) groupKey(g uint64, i int) uint64 {
	return s.blobKeys + s.counterKeys + g*groupKeys + uint64(i)
}

func (s *kvShape) totalKeys() uint64 { return s.blobKeys + s.counterKeys + s.groups*groupKeys }

// syncCost is what one Sync or SyncDir costs on the modelled device.
const syncCost = 500 * time.Microsecond

const (
	kvShards = 4
	// callersPerProc callers share each processor, and over the wire each
	// processor's callers pipeline on one connection. Two callers that
	// block (on a stripe, on a reply) would leave a processor idle, and
	// waking an idle processor on a virtual machine costs ~100 µs: with one
	// caller per processor that wake-up time, not the store, set the pace
	// and ops_s spread 14 % between runs.
	callersPerProc  = 8
	tagPreloadValue = "0"
)

// kvWorkload is a tkv.Store, optionally behind a loopback wire server,
// plus the callers that load it and remember what was acknowledged.
type kvWorkload struct {
	env   env
	shape kvShape

	cfg   tkv.Config
	fs    *benchfs.FS
	st    *tkv.Store
	srv   *tkvwire.Server
	serve sync.WaitGroup
	conns []*tkvwire.Conn

	all    []*kvCaller // load callers, then the replay caller when traced
	nLoad  int
	faults *faults
	start  kvCounters // the layers' counters when set-up ended
}

func newKVWorkload(e env, shape kvShape) *kvWorkload {
	return &kvWorkload{env: e, shape: shape, faults: e.faults}
}

func (w *kvWorkload) setup() error {
	s := &w.shape
	perShard := int(s.totalKeys() / kvShards)
	buckets := 512
	for buckets < perShard {
		buckets <<= 1
	}
	w.cfg = tkv.Config{Shards: kvShards, Buckets: buckets, Scheduler: s.scheduler}
	if s.durable {
		dir := filepath.Join(w.env.dir, "wal")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		w.fs = benchfs.New(syncCost)
		w.cfg.WAL = &tkvwal.Options{Dir: dir, Mode: tkvwal.ModeShared, FS: w.fs}
	}
	st, err := tkv.Open(w.cfg)
	if err != nil {
		return err
	}
	w.st = st
	if err := w.preload(); err != nil {
		return err
	}

	w.nLoad = w.env.procs * callersPerProc
	var addr string
	if s.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr = ln.Addr().String()
		w.srv = tkvwire.NewServer(st)
		w.serve.Add(1)
		go func() {
			defer w.serve.Done()
			w.srv.Serve(ln) // returns ErrServerClosed once close() runs
		}()
	}
	n := w.nLoad
	if w.env.traced {
		n++
	}
	for i := 0; i < n; i++ {
		c := &kvCaller{
			idx: i, w: w, api: st, rng: newRNG(w.env.seed, uint64(i)),
			lastBlob: make(map[uint64]uint64), lastGroup: make(map[uint64]uint64),
		}
		if s.wire {
			// One connection per processor; the replay caller gets its own.
			if i%callersPerProc == 0 {
				conn, err := tkvwire.Dial(addr)
				if err != nil {
					return err
				}
				w.conns = append(w.conns, conn)
			}
			c.api = w.conns[len(w.conns)-1]
		}
		if w.env.traced {
			c.sample = make([]kvOp, 0, traceSampleCap)
		}
		w.all = append(w.all, c)
	}
	warmUp(w.callers(), w.env.warmOps)
	w.start = w.readCounters()
	return nil
}

// preload writes every key once through the store's public API, in
// parallel over disjoint key ranges. It uses the split put and parks on
// durability once per range, not once per key: the log makes records
// durable in append order, so the last handle covers the range.
func (w *kvWorkload) preload() error {
	s := &w.shape
	total := s.totalKeys()
	errs := make([]error, w.env.procs)
	forEachCaller(w.env.procs, func(p int) {
		lo := total * uint64(p) / uint64(w.env.procs)
		hi := total * uint64(p+1) / uint64(w.env.procs)
		var last *tkvwal.Commit
		for k := lo; k < hi; k++ {
			val := tagPreloadValue
			if k < s.blobKeys {
				val = makeBlob(k, makeTag(preloadCaller, 1))
			}
			_, cm, err := w.st.PutRefAsync(k, &val)
			if err != nil {
				errs[p] = err
				return
			}
			last = cm
		}
		errs[p] = last.Wait()
	})
	return errors.Join(errs...)
}

func (w *kvWorkload) callers() []caller {
	cs := make([]caller, w.nLoad)
	for i := range cs {
		cs[i] = w.all[i]
	}
	return cs
}

// stopServing closes the callers' connections and the wire server.
func (w *kvWorkload) stopServing() {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.srv != nil {
		w.srv.Close()
		w.serve.Wait()
		w.srv = nil
	}
}

func (w *kvWorkload) close() {
	w.stopServing()
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
	if w.shape.durable {
		os.RemoveAll(filepath.Join(w.env.dir, "wal"))
	}
}

// kvCaller is one closed- or open-loop caller: its own op stream, its own
// record of what the store acknowledged to it.
type kvCaller struct {
	idx int
	w   *kvWorkload
	api kvAPI
	rng rng
	seq uint64

	lastBlob  map[uint64]uint64 // blob key -> tag of the last acknowledged put, 0 after an acknowledged delete
	lastGroup map[uint64]uint64 // group -> tag of the last acknowledged batch
	deltaSum  int64             // sum of acknowledged counter deltas
	errFrames int               // wire responses with a nonzero status
	userBytes int64             // key and value bytes of acknowledged writes

	sample []kvOp   // ops that fell on the trace sample, for replay
	ops    []tkv.Op // scratch
}

func (c *kvCaller) nextTag() uint64 {
	c.seq++
	return makeTag(c.idx, c.seq)
}

func (c *kvCaller) do(sb *spanBuf) bool {
	o := c.w.shape.gen(c)
	if sb == nil {
		return c.exec(c.api, o)
	}
	if len(c.sample) < cap(c.sample) {
		c.sample = append(c.sample, o)
	}
	name := "tkv.call"
	if c.w.shape.wire {
		name = "tkvwire.call"
	}
	sb.begin(name, o.tag)
	ok := c.exec(c.api, o)
	sb.end()
	return ok
}

// exec runs o against api, checks the result, and records what was
// acknowledged. It returns false when the op failed or was refused; a
// wrong result is a fault, which fails the whole run.
func (c *kvCaller) exec(api kvAPI, o kvOp) bool {
	var err error
	switch o.kind {
	case opGet:
		var v string
		var found bool
		if v, found, err = api.Get(o.key); err == nil {
			if _, ok := checkBlob(v, o.key); !found || !ok {
				c.w.faults.add("get %d: found=%v, %d bytes that are not an intact blob of this key", o.key, found, len(v))
			}
		}
	case opPut:
		if _, err = api.Put(o.key, makeBlob(o.key, o.tag)); err == nil {
			c.lastBlob[o.key] = o.tag
			c.userBytes += 8 + blobLen
		}
	case opDelete:
		if _, err = api.Delete(o.key); err == nil {
			c.lastBlob[o.key] = 0
			c.userBytes += 8
		}
	case opAdd:
		var sum int64
		if sum, err = api.Add(o.key, o.delta); err == nil {
			c.deltaSum += o.delta
			c.userBytes += 8 + int64(len(strconv.FormatInt(sum, 10)))
		}
	case opBatch:
		c.ops = c.ops[:0]
		tag := strconv.FormatUint(o.tag, 16)
		for i, k := range o.keys {
			if i < batchKeys-groupKeys {
				c.ops = append(c.ops, tkv.Op{Kind: tkv.OpAdd, Key: k, Delta: o.delta})
			} else {
				c.ops = append(c.ops, tkv.Op{Kind: tkv.OpPut, Key: k, Value: tag})
			}
		}
		if _, err = api.Batch(c.ops); err == nil {
			c.deltaSum += o.delta * (batchKeys - groupKeys)
			c.lastGroup[o.key] = o.tag
		}
	case opMGet:
		var res []tkv.OpResult
		if res, err = api.MGet(o.keys[:]); err == nil {
			c.checkMGet(o, res)
		}
	}
	if err == nil {
		return true
	}
	var se *tkvwire.StatusError
	if errors.As(err, &se) {
		c.errFrames++
	}
	c.w.faults.note(err)
	return false
}

// checkMGet requires each group's tag keys to agree: a batch sets all
// four under exclusive stripes, so a reader that sees two values saw half
// a batch.
func (c *kvCaller) checkMGet(o kvOp, res []tkv.OpResult) {
	if len(res) != batchKeys {
		c.w.faults.add("mget of %d keys returned %d results", batchKeys, len(res))
		return
	}
	for g := 0; g < batchKeys; g += groupKeys {
		for i := g; i < g+groupKeys; i++ {
			if !res[i].Found || res[i].Value != res[g].Value {
				c.w.faults.add("torn mget: keys %v read %q found=%v beside %q", o.keys[g:g+groupKeys], res[i].Value, res[i].Found, res[g].Value)
				return
			}
		}
	}
}

// verify is the output check: the store's final state must be explained
// by what was acknowledged. For each written blob key the surviving value
// must be the last one its writer had acknowledged (a caller's own puts to
// one key are ordered, so an older one surviving is a lost update); the
// counters must sum to the acknowledged deltas; each tag group must be
// uniform and carry its writer's last tag. On the durable workload the
// same state must then survive losing power.
func (w *kvWorkload) verify(lr *layerRun) error {
	for _, check := range []func() error{w.verifyBlobs, w.verifyCounters, w.verifyGroups} {
		if err := check(); err != nil {
			return err
		}
	}
	if w.shape.durable {
		if err := w.crashDrill(lr); err != nil {
			return err
		}
	}
	return w.faults.err()
}

func (w *kvWorkload) verifyBlobs() error {
	written := make(map[uint64]bool)
	for _, c := range w.all {
		for k := range c.lastBlob {
			written[k] = true
		}
	}
	for k := range written {
		v, found, err := w.st.Get(k)
		if err != nil {
			return err
		}
		if !found {
			deleted := false
			for _, c := range w.all {
				if tag, ok := c.lastBlob[k]; ok && tag == 0 {
					deleted = true
				}
			}
			if !deleted {
				w.faults.add("key %d is gone though no caller's last acknowledged op on it was a delete", k)
			}
			continue
		}
		tag, ok := checkBlob(v, k)
		if !ok {
			w.faults.add("key %d holds %d bytes that are not an intact blob of this key", k, len(v))
			continue
		}
		if c := tagCaller(tag); c >= len(w.all) || w.all[c].lastBlob[k] != tag {
			w.faults.add("key %d holds tag %#x, which is not its writer's last acknowledged put: lost update", k, tag)
		}
	}
	// A sample of the keys nobody wrote must still hold what set-up put there.
	r := newRNG(w.env.seed, 1<<32)
	for i := 0; i < 4096 && w.shape.blobKeys > 0; i++ {
		k := r.intn(w.shape.blobKeys)
		if written[k] {
			continue
		}
		v, found, err := w.st.Get(k)
		if err != nil {
			return err
		}
		if tag, ok := checkBlob(v, k); !found || !ok || tagCaller(tag) != preloadCaller {
			w.faults.add("unwritten key %d no longer holds its preloaded value", k)
		}
	}
	return nil
}

func (w *kvWorkload) verifyCounters() error {
	var sum, acked int64
	for _, c := range w.all {
		acked += c.deltaSum
	}
	for i := uint64(0); i < w.shape.counterKeys; i++ {
		k := w.shape.counterKey(i)
		v, _, err := w.st.Get(k)
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			w.faults.add("counter %d holds %q", k, v)
		}
		sum += n
	}
	if sum != acked {
		w.faults.add("counters sum to %d, acknowledged deltas to %d", sum, acked)
	}
	return nil
}

func (w *kvWorkload) verifyGroups() error {
	keys := make([]uint64, groupKeys)
	for g := uint64(0); g < w.shape.groups; g++ {
		for i := range keys {
			keys[i] = w.shape.groupKey(g, i)
		}
		res, err := w.st.MGet(keys)
		if err != nil {
			return err
		}
		tag, err := strconv.ParseUint(res[0].Value, 16, 64)
		if err != nil {
			w.faults.add("group %d holds %q", g, res[0].Value)
			continue
		}
		for _, r := range res {
			if r.Value != res[0].Value {
				w.faults.add("group %d is not uniform at rest: %q beside %q", g, r.Value, res[0].Value)
			}
		}
		if tag == 0 {
			for _, c := range w.all {
				if _, ok := c.lastGroup[g]; ok {
					w.faults.add("group %d still holds its preloaded tag after an acknowledged batch", g)
				}
			}
		} else if c := tagCaller(tag); c >= len(w.all) || w.all[c].lastGroup[g] != tag {
			w.faults.add("group %d holds tag %#x, which is not its writer's last acknowledged batch", g, tag)
		}
	}
	return nil
}

// crashDrill cuts the power under the quiesced store: the log is
// abandoned without a flush, every file is truncated to what had been
// synced, and a fresh store recovers the directory. Every caller has
// returned, so every write was acknowledged and all of them must be there.
func (w *kvWorkload) crashDrill(lr *layerRun) error {
	before, err := w.st.Snapshot()
	if err != nil {
		return err
	}
	w.stopServing()
	w.st.WAL().Abandon()
	w.st.Close()
	w.st = nil
	if _, err := w.fs.PowerLoss(); err != nil {
		return err
	}

	t0 := time.Now()
	st, err := tkv.Open(w.cfg)
	if err != nil {
		return fmt.Errorf("recovery after power loss: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	w.st = st
	if lr != nil {
		rec := st.WAL().Stats().Recovery
		lr.set("tkvwal.recover_s", recoverS)
		lr.set("tkvwal.recover_us_per_rec", recoverS*1e6/float64(max(rec.Replayed+rec.CheckpointEntries, 1)))
	}

	after, err := st.Snapshot()
	if err != nil {
		return err
	}
	for k, v := range before {
		if got, ok := after[k]; !ok || got != v {
			w.faults.add("acknowledged write to key %d did not survive power loss (present=%v)", k, ok)
		}
	}
	for k := range after {
		if _, ok := before[k]; !ok {
			w.faults.add("key %d came back after power loss though its delete was acknowledged", k)
		}
	}
	return nil
}

// faults collects wrong results (which fail the run) and remembers the
// first few op errors for the report.
type faults struct {
	mu     sync.Mutex
	wrong  []string
	nWrong int
	opErrs []string
}

const faultsKept = 8

func (f *faults) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nWrong++
	if len(f.wrong) < faultsKept {
		f.wrong = append(f.wrong, fmt.Sprintf(format, args...))
	}
}

func (f *faults) note(opErr error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.opErrs) < faultsKept {
		f.opErrs = append(f.opErrs, opErr.Error())
	}
}

func (f *faults) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nWrong == 0 {
		return nil
	}
	return fmt.Errorf("%d wrong results, first: %q", f.nWrong, f.wrong)
}
