package main

import (
	"fmt"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// treeWorkload is the engine-level scenario: a transactional red-black
// tree on the swiss engine with no scheduler, the shape of the paper's
// red-black tree figure.
type treeWorkload struct {
	env      env
	keyRange int64
	tm       stm.TM
	tree     *stmds.RBTree[int64]
	initial  int
	all      []*treeCaller
	faults   *faults
	start    stm.Stats // the engine's counters when set-up ended
}

func newTreeWorkload(e env) *treeWorkload {
	// 4096 keys, half of them present, make a tree of about 0.6 MB: it
	// fits the 2 MiB second-level cache of the host this was built on.
	// The 16384 keys first tried make one of 2-3 MB, which does not; its
	// lookups ran at the speed of the shared third-level cache, which the
	// neighbours set, and ops_s read 507-640 k on identical code.
	w := &treeWorkload{env: e, keyRange: 4096, faults: e.faults}
	if e.smoke {
		w.keyRange = 1024
	}
	return w
}

// treeVal is the value stored under key k; a lookup that finds anything
// else read a torn or misplaced node.
func treeVal(k int64) int64 { return k*2654435761 + 1 }

func (w *treeWorkload) setup() error {
	// Busy waiting, not the engine's default: with one caller per
	// processor there is nobody to yield to, and the default policy's
	// back-off is time.Sleep, which on Linux returns after a millisecond or
	// more when the processor has nothing else to run. With it a third
	// abort in a row stalled a caller for ~1.1 ms, ops_s was a third lower
	// and spread 13 % between runs, and p90 sat at 1-2 ms for a 1 µs
	// operation. The control workload should not be a measurement of that.
	tm, _, err := enginecfg.Build(enginecfg.Spec{Engine: enginecfg.EngineSwiss, Wait: stm.WaitBusy})
	if err != nil {
		return err
	}
	w.tm = tm
	w.tree = stmds.NewRBTree[int64]()
	// Half the key range is present at the start, so inserts and deletes
	// succeed about equally often and the size stays near half.
	th := tm.Register("preload")
	for k := int64(0); k < w.keyRange; k += 2 {
		if err := th.Atomically(func(tx stm.Tx) error {
			_, err := w.tree.Insert(tx, k, treeVal(k))
			return err
		}); err != nil {
			return err
		}
		w.initial++
	}
	for i := 0; i < w.env.procs; i++ {
		w.all = append(w.all, newTreeCaller(w, i))
	}
	warmUp(w.callers(), w.env.warmOps)
	w.start = tm.Stats()
	return nil
}

func (w *treeWorkload) callers() []caller {
	cs := make([]caller, len(w.all))
	for i := range cs {
		cs[i] = w.all[i]
	}
	return cs
}

func (w *treeWorkload) close() {}

func (w *treeWorkload) counters(values map[string]float64, _ float64) {
	now := w.tm.Stats()
	commits, aborts := float64(now.Commits-w.start.Commits), float64(now.Aborts-w.start.Aborts)
	values["stm.abort_ratio"] = aborts / max(commits+aborts, 1)
	values["stm.retries_per_commit"] = aborts / max(commits, 1)
}

// verify requires the red-black invariants to hold and the size to be the
// initial size plus successful inserts minus successful deletes.
func (w *treeWorkload) verify(*layerRun) error {
	want := w.initial
	for _, c := range w.all {
		want += c.inserted - c.deleted
	}
	var size int
	err := w.tm.Register("verify").Atomically(func(tx stm.Tx) error {
		if _, err := w.tree.CheckInvariants(tx); err != nil {
			return err
		}
		var err error
		size, err = w.tree.Size(tx)
		return err
	})
	if err != nil {
		return fmt.Errorf("rbtree: %w", err)
	}
	if size != want {
		w.faults.add("tree holds %d keys, acknowledged inserts and deletes leave %d", size, want)
	}
	return w.faults.err()
}

const (
	treeLookup = iota
	treeInsert
	treeDelete
)

// treeOp is one generated tree operation.
type treeOp struct {
	kind uint8
	key  int64
}

// treeCaller owns one registered STM thread. The transaction bodies are
// built once and read their argument from the caller, so the timed loop
// allocates nothing of its own.
type treeCaller struct {
	w   *treeWorkload
	th  stm.Thread
	rng rng
	n   uint64

	key    int64
	val    int64
	hit    bool
	lookup func(tx *stm.ROTx) error
	insert func(tx stm.Tx) error
	delete func(tx stm.Tx) error
	sample []treeOp

	inserted, deleted int
}

func newTreeCaller(w *treeWorkload, idx int) *treeCaller {
	c := &treeCaller{w: w, th: w.tm.Register(fmt.Sprintf("caller-%d", idx)), rng: newRNG(w.env.seed, uint64(idx))}
	if w.env.traced {
		c.sample = make([]treeOp, 0, traceSampleCap)
	}
	c.lookup = func(tx *stm.ROTx) (err error) {
		c.val, c.hit, err = w.tree.GetRO(tx, c.key)
		return err
	}
	c.insert = func(tx stm.Tx) (err error) {
		c.hit, err = w.tree.Insert(tx, c.key, treeVal(c.key))
		return err
	}
	c.delete = func(tx stm.Tx) (err error) {
		c.hit, err = w.tree.Delete(tx, c.key)
		return err
	}
	return c
}

func (c *treeCaller) gen() treeOp {
	o := treeOp{kind: treeLookup}
	switch p := c.rng.intn(100); {
	case p < 10:
		o.kind = treeInsert
	case p < 20:
		o.kind = treeDelete
	}
	o.key = int64(c.rng.intn(uint64(c.w.keyRange)))
	return o
}

func (c *treeCaller) do(sb *spanBuf) bool {
	o := c.gen()
	c.n++
	if sb == nil {
		return c.exec(o)
	}
	if len(c.sample) < cap(c.sample) {
		c.sample = append(c.sample, o)
	}
	sb.begin("stmds.call", c.n)
	ok := c.exec(o)
	sb.end()
	return ok
}

func (c *treeCaller) exec(o treeOp) bool {
	c.key = o.key
	var err error
	switch o.kind {
	case treeLookup:
		if err = c.th.AtomicallyRO(c.lookup); err == nil && c.hit && c.val != treeVal(o.key) {
			c.w.faults.add("lookup %d read %d, want %d", o.key, c.val, treeVal(o.key))
		}
	case treeInsert:
		if err = c.th.Atomically(c.insert); err == nil && c.hit {
			c.inserted++
		}
	case treeDelete:
		if err = c.th.Atomically(c.delete); err == nil && c.hit {
			c.deleted++
		}
	}
	if err != nil {
		c.w.faults.note(err)
	}
	return err == nil
}
