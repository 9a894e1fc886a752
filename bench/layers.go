package main

import (
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/shrink-tm/shrink/bench/benchfs"
	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/keylock"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// layerRun is the traced run's replay stage: one span buffer for the
// replayed calls and the per-layer metrics derived from them.
type layerRun struct {
	sb      *spanBuf
	metrics map[string]float64
	floor   float64 // length of an empty span: the cost of reading the clock twice
}

func newLayerRun(sb *spanBuf) *layerRun {
	lr := &layerRun{sb: sb, metrics: make(map[string]float64)}
	for i := 0; i < 1000; i++ {
		sb.begin("clock.floor", 0)
		sb.end()
	}
	lr.floor = median(sb.durations(false, "clock.floor"))
	return lr
}

func (lr *layerRun) set(name string, v float64) { lr.metrics[name] = v }

// medianNS is the median length of the replay spans called name, less the
// clock floor; 0 when there are none.
func (lr *layerRun) medianNS(name string) float64 {
	return max(median(lr.sb.durations(false, name))-lr.floor, 0)
}

// selfNS is the median self time (length less direct children) of the
// replay spans called one of names, less the clock floor.
func (lr *layerRun) selfNS(names ...string) float64 {
	return max(median(lr.sb.durations(true, names...))-lr.floor, 0)
}

// stop ends the innermost span's interval but keeps it open as the parent
// of what follows: replayed children run after their parent, not inside it.
func (b *spanBuf) stop() {
	if i := b.open[len(b.open)-1]; i >= 0 {
		b.spans[i].End = int64(time.Since(b.base))
	}
}

// pop closes a span whose interval stop already ended.
func (b *spanBuf) pop() { b.open = b.open[:len(b.open)-1] }

// replayLimit bounds the ops replayed per traced run; a durable write
// costs a group commit, so that workload replays fewer.
const (
	replayLimit        = 4096
	replayLimitDurable = 256
)

// stmProbe is a private engine with one map and one variable on it: the
// stand-in for a shard's TM stack when a sampled op is replayed below the
// store. It is uncontended by construction. The transaction bodies are
// built once and take their keys from the probe, so a replayed call pays
// for the transaction and not for a closure.
type stmProbe struct {
	th   stm.Thread
	m    *stmds.HashMap[string]
	cell *stm.TVar[int64]
	keys []uint64

	roBody, getBody     func(tx *stm.ROTx) error
	updateBody, putBody func(tx stm.Tx) error
}

func newSTMProbe(scheduler string, buckets int) (*stmProbe, error) {
	tm, _, err := enginecfg.Build(enginecfg.Spec{Engine: enginecfg.EngineSwiss, Scheduler: scheduler})
	if err != nil {
		return nil, err
	}
	p := &stmProbe{th: tm.Register("probe"), m: stmds.NewHashMap[string](buckets), cell: stm.NewT[int64](0)}
	p.roBody = func(tx *stm.ROTx) error {
		_, err := stm.ReadTRO(tx, p.cell)
		return err
	}
	p.updateBody = func(tx stm.Tx) error {
		v, err := stm.ReadT(tx, p.cell)
		if err != nil {
			return err
		}
		return stm.WriteT(tx, p.cell, v+1)
	}
	p.getBody = func(tx *stm.ROTx) error {
		for _, k := range p.keys {
			if _, _, err := p.m.GetRO(tx, k); err != nil {
				return err
			}
		}
		return nil
	}
	// A read-modify-write of each key in one update transaction is what a
	// store put, add or batch does to its shard's map.
	p.putBody = func(tx stm.Tx) error {
		for _, k := range p.keys {
			if _, _, err := p.m.Get(tx, k); err != nil {
				return err
			}
			if _, err := p.m.Put(tx, k, tagPreloadValue); err != nil {
				return err
			}
		}
		return nil
	}
	return p, nil
}

// The probe's transactions cannot conflict (one thread) and their bodies
// return only engine errors, so their results carry nothing to check.
func (p *stmProbe) roTx()     { p.th.AtomicallyRO(p.roBody) }
func (p *stmProbe) updateTx() { p.th.Atomically(p.updateBody) }

func (p *stmProbe) get(keys []uint64) {
	p.keys = keys
	p.th.AtomicallyRO(p.getBody)
}

func (p *stmProbe) put(keys []uint64) {
	p.keys = keys
	p.th.Atomically(p.putBody)
}

// layers replays the trace sample through the store and the layers under
// it. Each op yields one tree of spans:
//
//	tkvwire.call                 one unpipelined round trip (wire workloads)
//	  tkv.<op>                   the same op straight into the store
//	    keylock.lock             its keys' stripes, uncontended
//	    stmds.hashmap_<op>       the map work in one transaction on a private engine
//	      stm.ro_tx|update_tx    an empty transaction of the same kind
//	    tkvlog.append            its log record, encoded (durable only)
//	  tkvwal.wait                the durability park (durable only)
//	tkvwire.codec                every frame of the op, encoded and parsed
//
// Writes go through the replay caller, so verify accounts for them like
// any other caller's.
func (w *kvWorkload) layers(lr *layerRun) {
	s := &w.shape
	rc := w.all[w.nLoad]
	limit := replayLimit
	if s.durable {
		limit = replayLimitDurable
	}
	var ops []kvOp
	for i := 0; len(ops) < limit; i++ {
		took := false
		for _, c := range w.all[:w.nLoad] {
			if i < len(c.sample) && len(ops) < limit {
				ops = append(ops, c.sample[i])
				took = true
			}
		}
		if !took {
			break
		}
	}

	probe, err := newSTMProbe(s.scheduler, 4096)
	if err != nil {
		w.faults.add("probe engine: %v", err)
		return
	}
	for _, o := range ops {
		probe.put([]uint64{o.key})
		probe.put(o.keys[:])
	}
	locks := keylock.New(0)
	sb := lr.sb
	var frame []byte
	var wireBytes, logBytes, logRecs float64

	for _, o := range ops {
		o.tag = rc.nextTag() // the replay's own write, ordered after the sampled one
		if s.wire {
			sb.begin("tkvwire.call", o.tag)
			rc.exec(rc.api, o)
			sb.stop()
		}
		cm := w.replayStore(sb, rc, o)
		w.replayBelow(sb, probe, locks, o)
		logged := s.durable && o.kind != opGet
		if logged {
			rec := tkvlog.Record{Shard: uint16(w.st.ShardOf(o.key)), Seq: rc.seq, Entries: []tkvlog.Entry{logEntry(o)}}
			sb.begin("tkvlog.append", o.tag)
			frame = rec.Append(frame[:0])
			sb.end()
			logBytes += float64(len(frame))
			logRecs++
		}
		sb.pop() // tkv.<op>
		if cm != nil {
			sb.timed("tkvwal.wait", o.tag, func() {
				if err := cm.Wait(); err != nil {
					w.faults.note(err)
				}
			})
		}
		if s.wire {
			sb.pop() // tkvwire.call
		}
		if logged {
			var back tkvlog.Record
			sb.timed("tkvlog.decode", o.tag, func() { back.Decode(frame) })
		}
		if s.wire {
			sb.begin("tkvwire.codec", o.tag)
			n := codecRoundTrip(&frame, o)
			sb.end()
			wireBytes += float64(n)
		}
	}

	n := float64(max(len(ops), 1))
	if s.wire {
		lr.set("tkvwire.rtt_p50_us", lr.medianNS("tkvwire.call")/1e3)
		lr.set("tkvwire.self_us_per_op", lr.selfNS("tkvwire.call")/1e3)
		lr.set("tkvwire.codec_ns_per_op", lr.medianNS("tkvwire.codec"))
		lr.set("tkvwire.bytes_per_op", wireBytes/n)
	}
	lr.set("tkv.get_ns", lr.medianNS("tkv.get"))
	lr.set("tkv.put_ns", lr.medianNS("tkv.put"))
	lr.set("tkv.add_ns", lr.medianNS("tkv.add"))
	lr.set("tkv.batch_us", lr.medianNS("tkv.batch")/1e3)
	lr.set("tkv.mget_us", lr.medianNS("tkv.mget")/1e3)
	lr.set("tkv.self_ns_per_op", lr.selfNS("tkv.get", "tkv.put", "tkv.delete", "tkv.add", "tkv.batch", "tkv.mget"))
	lr.set("keylock.lock_ns", lr.medianNS("keylock.lock"))
	lr.set("stm.ro_tx_ns", lr.medianNS("stm.ro_tx"))
	lr.set("stm.update_tx_ns", lr.medianNS("stm.update_tx"))
	get := lr.medianNS("stmds.hashmap_get")
	if get == 0 {
		get = lr.medianNS("stmds.hashmap_mget") / batchKeys
	}
	lr.set("stmds.hashmap_get_ns", get)
	lr.set("stmds.hashmap_put_ns", lr.medianNS("stmds.hashmap_put"))

	if s.scheduler != "" {
		w.probeSchedHook(lr)
	}
	if s.durable {
		lr.set("tkvlog.append_ns", lr.medianNS("tkvlog.append"))
		lr.set("tkvlog.decode_ns", lr.medianNS("tkvlog.decode"))
		lr.set("tkvlog.bytes_per_rec", logBytes/max(logRecs, 1))
		w.probeWAL(lr)
		sb.begin("tkvwal.checkpoint", 0)
		err := w.st.CheckpointAll()
		sb.end()
		if err != nil {
			w.faults.add("checkpoint: %v", err)
		}
		lr.set("tkvwal.checkpoint_ms", lr.medianNS("tkvwal.checkpoint")/1e6)
	}
}

func logEntry(o kvOp) tkvlog.Entry {
	switch o.kind {
	case opPut:
		return tkvlog.Entry{Key: o.key, Val: makeBlob(o.key, o.tag)}
	case opDelete:
		return tkvlog.Entry{Key: o.key, Del: true}
	}
	return tkvlog.Entry{Key: o.key, Val: strconv.FormatInt(o.delta, 10)}
}

// replayStore runs o straight into the store as span tkv.<op>, left open
// as the parent of the layers below. Single-key writes use the store's
// split calls, so the span ends at commit and the durability park (the
// returned handle, nil without a sync WAL) is timed on its own.
func (w *kvWorkload) replayStore(sb *spanBuf, rc *kvCaller, o kvOp) (cm *tkvwal.Commit) {
	st := w.st
	var err error
	switch o.kind {
	case opPut:
		val := makeBlob(o.key, o.tag)
		sb.begin("tkv.put", o.tag)
		_, cm, err = st.PutRefAsync(o.key, &val)
		sb.stop()
		if err == nil {
			rc.lastBlob[o.key] = o.tag
		}
	case opDelete:
		sb.begin("tkv.delete", o.tag)
		_, cm, err = st.DeleteAsync(o.key)
		sb.stop()
		if err == nil {
			rc.lastBlob[o.key] = 0
		}
	case opAdd:
		sb.begin("tkv.add", o.tag)
		_, cm, err = st.AddAsync(o.key, o.delta)
		sb.stop()
		if err == nil {
			rc.deltaSum += o.delta
		}
	default:
		sb.begin([...]string{opGet: "tkv.get", opBatch: "tkv.batch", opMGet: "tkv.mget"}[o.kind], o.tag)
		rc.exec(st, o)
		sb.stop()
	}
	if err != nil {
		w.faults.note(err)
	}
	return cm
}

// replayBelow runs o's share of the work in the layers under the store:
// its stripes on a private lock table, its map accesses in one transaction
// on a private engine, and an empty transaction of the same kind.
func (w *kvWorkload) replayBelow(sb *spanBuf, p *stmProbe, locks *keylock.Table, o kvOp) {
	keys := o.keys[:]
	if o.kind < opBatch {
		keys = []uint64{o.key}
	}
	// Reads and unlogged single-key writes share their stripe; logged
	// writes and cross-shard batches hold theirs exclusively.
	exclusive := o.kind == opBatch || (w.shape.durable && o.kind != opGet)
	sb.begin("keylock.lock", o.tag)
	for _, k := range keys {
		if exclusive {
			locks.Unlock(locks.LockKey(k))
		} else {
			locks.RUnlock(locks.RLockKey(k))
		}
	}
	sb.end()

	switch o.kind {
	case opGet, opMGet:
		sb.begin([...]string{opGet: "stmds.hashmap_get", opMGet: "stmds.hashmap_mget"}[o.kind], o.tag)
		p.get(keys)
		sb.stop()
		sb.timed("stm.ro_tx", o.tag, p.roTx)
	default:
		name := "stmds.hashmap_put"
		if o.kind == opBatch {
			name = "stmds.hashmap_batch"
		}
		sb.begin(name, o.tag)
		p.put(keys)
		sb.stop()
		sb.timed("stm.update_tx", o.tag, p.updateTx)
	}
	sb.pop()
}

// codecRoundTrip encodes and parses every frame of o, both directions,
// and returns the bytes that crossed the wire.
func codecRoundTrip(buf *[]byte, o kvOp) int {
	b := (*buf)[:0]
	var req, resp []byte
	id := o.tag
	switch o.kind {
	case opGet:
		req = tkvwire.AppendGetReq(b, id, o.key)
		tkvwire.ParseKeyReq(req[tkvwire.HeaderSize:])
		resp = tkvwire.AppendGetResp(req, id, makeBlob(o.key, o.tag), true)[len(req):]
		if h, err := tkvwire.ParseHeader(resp, tkvwire.MaxRespFrame); err == nil {
			tkvwire.ParseGetResp(h.Flags, resp[tkvwire.HeaderSize:])
		}
	case opPut:
		req = tkvwire.AppendPutReq(b, id, o.key, []byte(makeBlob(o.key, o.tag)))
		tkvwire.ParsePutReq(req[tkvwire.HeaderSize:])
		resp = tkvwire.AppendBoolResp(req, tkvwire.OpPut, id, false)[len(req):]
	case opDelete:
		req = tkvwire.AppendDeleteReq(b, id, o.key)
		tkvwire.ParseKeyReq(req[tkvwire.HeaderSize:])
		resp = tkvwire.AppendBoolResp(req, tkvwire.OpDelete, id, true)[len(req):]
	case opAdd:
		req = tkvwire.AppendAddReq(b, id, o.key, o.delta)
		tkvwire.ParseAddReq(req[tkvwire.HeaderSize:])
		resp = tkvwire.AppendAddResp(req, id, o.delta)[len(req):]
		tkvwire.ParseUintResp(tkvwire.OpAdd, resp[tkvwire.HeaderSize:])
	default:
		return 0 // batches and multi-gets never cross the wire in this benchmark
	}
	tkvwire.ParseHeader(req, tkvwire.MaxFrame)
	tkvwire.ParseHeader(resp, tkvwire.MaxRespFrame)
	*buf = req[:0]
	return len(req) + len(resp)
}

// probeSchedHook prices the scheduler's hooks: the same uncontended update
// transaction on an engine with the workload's scheduler attached and on
// one without.
func (w *kvWorkload) probeSchedHook(lr *layerRun) {
	with, err1 := newSTMProbe(w.shape.scheduler, 16)
	without, err2 := newSTMProbe("", 16)
	if err1 != nil || err2 != nil {
		w.faults.add("scheduler probe engines: %v %v", err1, err2)
		return
	}
	for i := 0; i < 2000; i++ {
		lr.sb.timed("sched.tx_hooked", 0, with.updateTx)
		lr.sb.timed("sched.tx_bare", 0, without.updateTx)
	}
	lr.set("sched.hook_ns_per_tx", lr.medianNS("sched.tx_hooked")-lr.medianNS("sched.tx_bare"))
}

// probeWAL times Append plus Wait from one writer on a log of its own, on
// its own modelled device: one commit group per record, so this is the
// lane's pacing stall plus one sync, with nothing to share them with.
func (w *kvWorkload) probeWAL(lr *layerRun) {
	dir := filepath.Join(w.env.dir, "walprobe")
	defer os.RemoveAll(dir)
	wal, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: kvShards, Mode: tkvwal.ModeShared, FS: benchfs.New(syncCost)},
		func(*tkvlog.Record) error { return nil })
	if err != nil {
		w.faults.add("probe log: %v", err)
		return
	}
	entries := []tkvlog.Entry{{Key: 1, Val: makeBlob(1, 1)}}
	for seq := uint64(1); seq <= 200; seq++ {
		lr.sb.begin("tkvwal.append_wait", seq)
		err := wal.Append(0, seq, entries).Wait()
		lr.sb.end()
		if err != nil {
			w.faults.add("probe log append: %v", err)
			break
		}
	}
	if err := wal.Close(); err != nil {
		w.faults.add("probe log close: %v", err)
	}
	lr.set("tkvwal.append_wait_p50_us", lr.medianNS("tkvwal.append_wait")/1e3)
}

// layers replays the sampled tree ops on a private engine and tree, one
// caller, nothing else running: what the data structure and the engine
// cost without contention.
func (w *treeWorkload) layers(lr *layerRun) {
	tm, _, err := enginecfg.Build(enginecfg.Spec{Engine: enginecfg.EngineSwiss})
	if err != nil {
		w.faults.add("probe engine: %v", err)
		return
	}
	th := tm.Register("probe")
	tree := stmds.NewRBTree[int64]()
	for k := int64(0); k < w.keyRange; k += 2 {
		th.Atomically(func(tx stm.Tx) error {
			_, err := tree.Insert(tx, k, treeVal(k))
			return err
		})
	}
	probe, err := newSTMProbe("", 16)
	if err != nil {
		w.faults.add("probe engine: %v", err)
		return
	}
	sb := lr.sb
	n := 0
	for i := 0; n < replayLimit; i++ {
		took := false
		for _, c := range w.all {
			if i >= len(c.sample) || n >= replayLimit {
				continue
			}
			o := c.sample[i]
			took = true
			n++
			switch o.kind {
			case treeLookup:
				sb.begin("stmds.rbtree_get", uint64(n))
				th.AtomicallyRO(func(tx *stm.ROTx) error {
					_, _, err := tree.GetRO(tx, o.key)
					return err
				})
				sb.stop()
				sb.timed("stm.ro_tx", uint64(n), probe.roTx)
			default:
				sb.begin("stmds.rbtree_update", uint64(n))
				th.Atomically(func(tx stm.Tx) (err error) {
					if o.kind == treeInsert {
						_, err = tree.Insert(tx, o.key, treeVal(o.key))
					} else {
						_, err = tree.Delete(tx, o.key)
					}
					return err
				})
				sb.stop()
				sb.timed("stm.update_tx", uint64(n), probe.updateTx)
			}
			sb.pop()
		}
		if !took {
			break
		}
	}
	lr.set("stmds.rbtree_get_ns", lr.medianNS("stmds.rbtree_get"))
	lr.set("stmds.rbtree_update_ns", lr.medianNS("stmds.rbtree_update"))
	lr.set("stm.ro_tx_ns", lr.medianNS("stm.ro_tx"))
	lr.set("stm.update_tx_ns", lr.medianNS("stm.update_tx"))
}
