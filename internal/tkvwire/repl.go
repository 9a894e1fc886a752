package tkvwire

import (
	"fmt"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// Server-side replication shipping. A follower subscribes with OpReplSub;
// the connection's read loop then spawns a shipper goroutine that streams
// the store's replication log into the connection's ordinary response
// channel:
//
//	OpReplMeta   stream identity + per-shard heads (first frame, then a
//	             periodic heartbeat so the follower can track lag)
//	OpReplRec    one committed write set (a tkvlog record, verbatim)
//	OpReplCut    a whole-shard snapshot when the follower's cursor is
//	             below the shard's window — evicted, or from before the
//	             primary's log restarted — or its stream identity is stale
//	OpReplFence  clean end of stream: the primary fenced itself (graceful
//	             shutdown after DrainRepl), nothing more will ever come
//
// All frames carry the subscribe request's id. The shipper rides the
// existing write loop, so record frames coalesce into large writes
// exactly like pipelined responses do, and connection teardown needs no
// new mechanism: the read loop's exit closes conn.done, the shipper
// drains out, and the write loop finishes as usual.

// replHeartbeat is the idle-metadata cadence: how often a quiet stream
// refreshes the follower's view of the primary's heads.
const replHeartbeat = 200 * time.Millisecond

// replBatchRecs bounds how many records the shipper pulls from a window
// per read, so a deep backlog is shipped in bounded chunks interleaved
// across shards.
const replBatchRecs = 64

// shipper streams one subscription. cursors[i] is the highest sequence
// of shard i already written to the stream.
type shipper struct {
	srv     *Server
	c       *conn
	log     *tkv.ReplLog
	id      uint64 // subscribe request id, echoed on every frame
	cursors []uint64
	needCut []bool
	fenceMu sync.Mutex
	fence   chan struct{} // closed by DrainRepl to request a fence
	exited  chan struct{} // closed when run returns
	flushed chan struct{} // closed once the fence frame hit the socket
}

// dispatchReplSub validates and starts a subscription. It runs on the
// read loop; the stream itself runs on an async-tracked goroutine.
func (c *conn) dispatchReplSub(h Header, p []byte) bool {
	log := c.srv.store.Repl()
	if log == nil {
		c.sendErr(h.Op, h.ID, StatusBadRequest, "tkvwire: server has no replication log")
		return true
	}
	if c.srv.store.ReadOnly() {
		c.sendErr(h.Op, h.ID, StatusNotPrimary, tkv.ErrNotPrimary.Error())
		return true
	}
	streamID, applied, err := ParseReplSubReq(p)
	if err != nil {
		c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
		return false
	}
	if len(applied) != log.Shards() {
		c.sendErr(h.Op, h.ID, StatusBadRequest, fmt.Sprintf(
			"tkvwire: follower has %d shards, primary %d (run both with the same -shards)",
			len(applied), log.Shards()))
		return true
	}
	sh := &shipper{
		srv:     c.srv,
		c:       c,
		log:     log,
		id:      h.ID,
		cursors: applied,
		needCut: make([]bool, len(applied)),
		fence:   make(chan struct{}),
		exited:  make(chan struct{}),
		flushed: make(chan struct{}),
	}
	if streamID != log.StreamID() {
		// The follower last synced against a different log instance (a
		// restarted primary, or a promoted one): its watermarks mean
		// nothing here. Resync any shard it claims progress on; a fresh
		// follower (streamID 0, all watermarks 0) replays from the window,
		// or from a cut where the window no longer reaches back to 1.
		for i, a := range applied {
			if a != 0 {
				sh.needCut[i] = true
			}
		}
	}
	if !c.srv.registerShipper(sh) {
		c.sendErr(h.Op, h.ID, StatusInternal, "tkvwire: server closing")
		return true
	}
	c.async.Add(1)
	go func() {
		defer c.async.Done()
		sh.run()
	}()
	return true
}

// registerShipper tracks a live shipper for DrainRepl; false when the
// server is already closing.
func (s *Server) registerShipper(sh *shipper) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.shippers[sh] = struct{}{}
	return true
}

func (s *Server) unregisterShipper(sh *shipper) {
	s.mu.Lock()
	delete(s.shippers, sh)
	s.mu.Unlock()
}

// requestFence asks the shipper to finish: ship everything, emit
// OpReplFence, exit. Idempotent.
func (sh *shipper) requestFence() {
	sh.fenceMu.Lock()
	select {
	case <-sh.fence:
	default:
		close(sh.fence)
	}
	sh.fenceMu.Unlock()
}

// run streams until the connection drops or a fence completes.
func (sh *shipper) run() {
	fenceQueued := false
	defer close(sh.exited)
	defer sh.srv.unregisterShipper(sh)
	defer func() {
		// A stream that dies without fencing still resolves the flush
		// barrier, so DrainRepl never hangs on a dead follower.
		if !fenceQueued {
			close(sh.flushed)
		}
	}()
	sh.log.AddFollower()
	defer sh.log.RemoveFollower()
	sh.sendMeta()
	hb := time.NewTicker(replHeartbeat)
	defer hb.Stop()
	fenceCh := sh.fence
	fencing := false
	buf := make([]tkv.ReplRec, 0, replBatchRecs)
	var rec tkvlog.Record
	for {
		progress := false
		for shard := range sh.cursors {
			if sh.needCut[shard] {
				if !sh.sendCut(shard) {
					return
				}
				progress = true
			}
			for {
				recs, ok := sh.log.ReadFrom(shard, sh.cursors[shard]+1, replBatchRecs, buf[:0])
				if !ok {
					sh.log.NoteResync()
					if !sh.sendCut(shard) {
						return
					}
					progress = true
					continue
				}
				if len(recs) == 0 {
					break
				}
				for _, r := range recs {
					rec.Shard = uint16(shard)
					rec.Seq = r.Seq
					rec.Entries = r.Entries
					f := GetFrame(HeaderSize + rec.Size())
					f.B = AppendReplRec(f.B, sh.id, &rec)
					sh.c.out <- f
					sh.cursors[shard] = r.Seq
				}
				sh.log.NoteShipped(shard, sh.cursors[shard])
				progress = true
			}
		}
		if fencing && sh.caughtUp() {
			f := GetFrame(HeaderSize)
			f.B = AppendReplFence(f.B, sh.id)
			// The write loop closes sh.flushed once the fence is really
			// on the wire; DrainRepl blocks on that, not on queue depth.
			f.flushed = sh.flushed
			fenceQueued = true
			sh.c.out <- f
			return
		}
		if progress {
			select {
			case <-sh.c.done:
				return
			default:
			}
			continue
		}
		select {
		case <-sh.c.done:
			return
		case <-fenceCh:
			fencing = true
			fenceCh = nil // fire once; the caught-up check above finishes the job
		case <-sh.log.Notify():
		case <-hb.C:
			sh.sendMeta()
		}
	}
}

// caughtUp reports whether every cursor has reached its shard's head.
func (sh *shipper) caughtUp() bool {
	for shard, cur := range sh.cursors {
		if cur < sh.log.Head(shard) {
			return false
		}
	}
	return true
}

// sendMeta queues a stream metadata frame (identity + heads).
func (sh *shipper) sendMeta() {
	heads := make([]uint64, len(sh.cursors))
	for i := range heads {
		heads[i] = sh.log.Head(i)
	}
	f := GetFrame(HeaderSize + 12 + 8*len(heads))
	f.B = AppendReplMeta(f.B, sh.id, sh.log.StreamID(), heads)
	sh.c.out <- f
}

// sendCut ships a whole-shard snapshot and moves the cursor to the cut's
// watermark. false poisons the stream (the error is unrecoverable).
func (sh *shipper) sendCut(shard int) bool {
	pairs, seq, err := sh.srv.store.ReplShardCut(shard)
	if err != nil {
		sh.c.sendErr(OpReplCut, sh.id, StatusInternal, err.Error())
		return false
	}
	n := 16
	for _, p := range pairs {
		n += 12 + len(p.Val)
	}
	if n > MaxRespFrame-headerAfterLen {
		sh.c.sendErr(OpReplCut, sh.id, StatusInternal,
			"tkvwire: shard snapshot exceeds the wire frame limit")
		return false
	}
	f := GetFrame(HeaderSize + n)
	f.B = AppendReplCut(f.B, sh.id, uint32(shard), seq, pairs)
	sh.c.out <- f
	sh.cursors[shard] = seq
	sh.needCut[shard] = false
	return true
}

// DrainRepl finishes every live replication stream: each shipper ships
// its remaining backlog, emits OpReplFence and exits, and the queued
// frames are given time to flush to the sockets. Call it with the store
// already read-only (heads frozen) and before Close; a drained follower
// restarts from its watermarks with no snapshot resync. Returns false if
// the deadline passed with streams still behind.
func (s *Server) DrainRepl(timeout time.Duration) bool {
	s.mu.Lock()
	list := make([]*shipper, 0, len(s.shippers))
	for sh := range s.shippers {
		list = append(list, sh)
	}
	s.mu.Unlock()
	if len(list) == 0 {
		return true
	}
	deadline := time.Now().Add(timeout)
	for _, sh := range list {
		sh.requestFence()
	}
	ok := true
	for _, sh := range list {
		select {
		case <-sh.exited:
		case <-time.After(time.Until(deadline)):
			ok = false
		}
	}
	// The fence frames are queued behind any remaining backlog; wait for
	// the write loops to confirm they actually hit the sockets.
	for _, sh := range list {
		select {
		case <-sh.flushed:
		case <-time.After(time.Until(deadline)):
			ok = false
		}
	}
	return ok
}
