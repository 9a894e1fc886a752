package tkvwire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// ErrServerClosed is returned by Serve after Close, like its http twin.
var ErrServerClosed = errors.New("tkvwire: server closed")

// Server serves the binary wire protocol over persistent TCP connections.
// Each connection runs a read/write goroutine pair: the read loop decodes
// frames and executes single-key operations inline (zero allocation on the
// steady-state get/put path — pooled response frames, pooled store op
// slots, an interned put-value cache), handing multi-key operations to
// their own goroutine so a slow snapshot never head-of-line blocks
// pipelined point reads. Responses flow to the write loop over a channel
// and are flushed when it finds the channel empty: once per pipelined
// cohort where the pair shares a processor, more often where the writer
// runs beside the reader and keeps up with it (the client's rule, yield
// before flushing, was measured here and lost: EXPERIMENTS.md, PR 14).
// Before it runs a pipelined cohort, the read loop warms the key paths of
// the cohort's gets in one pass (see warmCohort).
// On a sync-WAL store the read loop never parks on durability either:
// write responses are prebuilt and deferred to a per-connection acker
// that releases them as their group fsync lands, so a connection's whole
// pipeline of writes stages into the same WAL commit group instead of
// paying one fsync round-trip per op.
type Server struct {
	store *tkv.Store

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	shippers map[*shipper]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a Server serving st.
func NewServer(st *tkv.Store) *Server {
	return &Server{
		store:    st,
		conns:    make(map[net.Conn]struct{}),
		shippers: make(map[*shipper]struct{}),
	}
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(nc)
	}
}

// closeGrace bounds how long Close waits for a peer to take the responses
// its connection still owes.
const closeGrace = time.Second

// Close stops the listener and every connection and waits for their
// handlers to drain. A connection stops reading first: its handler runs
// what it has already read, sends the responses and only then closes it,
// so a client never sees its connection end before a request the server
// read has run, and a retry on a new connection cannot be overtaken by
// the request it retries. A peer that has not taken its responses within
// closeGrace is cut off.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.SetReadDeadline(time.Unix(1, 0))
		nc.SetWriteDeadline(time.Now().Add(closeGrace))
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// maxInternValue and maxInternEntries bound the per-connection put-value
// intern cache: repeated small values (counters above all) are stored once
// and every later put of the same bytes reuses the interned cell — the last
// allocation on the put path. Unique or large values, and small ones once
// the cache is full, get a fresh cell each (tkv.NewCell, one object).
const (
	maxInternValue   = 64
	maxInternEntries = 4096
)

// conn is one connection's state. Owned by the read loop except out (the
// response channel, written by the read loop and async op goroutines,
// drained by the write loop).
type conn struct {
	srv     *Server
	nc      net.Conn
	br      *bufio.Reader
	out     chan *Frame
	async   sync.WaitGroup // in-flight mget/batch/len/stats/snap goroutines
	done    chan struct{}  // closed when the read loop exits; stops shippers
	hdr     [HeaderSize]byte
	payload []byte // reusable request-payload buffer (inline ops read it zero-copy)
	intern  map[string]*string
	// Deferred durability acks (sync-WAL stores only): the read loop
	// parks prebuilt write responses here instead of on the group fsync,
	// and ackLoop releases them as their commits turn durable. Lazily
	// created on the first deferred ack; both stay nil on WAL-less
	// stores, where writes respond inline.
	acks      chan walAck
	ackerDone chan struct{}
	// Cohort warming (see warmCohort), owned by the read loop: window is
	// the bytes of buffered requests the last scan covered that the loop
	// has not consumed yet, warmKeys the scan's get keys, and warmSink
	// keeps what Warm returns so the compiler keeps its loads.
	window   int
	warmKeys [tkv.WarmMax]uint64
	warmSink uint64
}

// handle runs one connection to completion.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		// The write loop batches frames itself; Nagle would only add
		// delayed-ack stalls on top.
		tc.SetNoDelay(true)
	}
	c := &conn{
		srv:    s,
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 64<<10),
		out:    make(chan *Frame, 256),
		done:   make(chan struct{}),
		intern: make(map[string]*string),
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()
	c.readLoop()
	close(c.done) // stop the connection's shipper, if one is streaming
	if c.acks != nil {
		close(c.acks) // the read loop was the only producer
	}
	c.async.Wait() // all async ops have sent their responses
	if c.ackerDone != nil {
		<-c.ackerDone // all parked write responses have been released
	}
	close(c.out)
	<-writerDone
	nc.Close()
}

// walAck is one write response parked on its WAL group: the response
// frame is prebuilt (the result is committed and visible to reads), and
// ackLoop releases it once the commit is durable — or converts it into
// an error response if the log fenced.
type walAck struct {
	c  *tkvwal.Commit
	f  *Frame
	op byte
	id uint64
}

// deferAck queues a prebuilt write response behind its WAL commit so the
// read loop can keep executing the connection's pipelined requests while
// the group fsync runs. Parking inline would cap every connection at one
// write per fsync round-trip; the point of group commit is that queued
// writes from every connection ride the same fsync, and that only
// happens if the read loop does not park. The protocol already completes
// multi-key ops out of order, so an inline read overtaking a parked
// write ack is nothing new — and the read observes the committed value,
// because the write applied before its handle was issued. A nil handle
// waits for nothing (no WAL, async mode, or a write that changed nothing
// and so logged nothing): its frame goes straight out, overtaking parked
// acks the same way.
func (c *conn) deferAck(cm *tkvwal.Commit, f *Frame, op byte, id uint64) {
	if cm == nil {
		c.out <- f
		return
	}
	if c.acks == nil {
		c.acks = make(chan walAck, 256)
		c.ackerDone = make(chan struct{})
		go c.ackLoop()
	}
	c.acks <- walAck{c: cm, f: f, op: op, id: id}
}

// ackLoop releases parked write responses in arrival order as their
// commits turn durable. A fenced log turns every parked response into
// the fence error — never an ack.
func (c *conn) ackLoop() {
	defer close(c.ackerDone)
	for a := range c.acks {
		if err := a.c.Wait(); err != nil {
			PutFrame(a.f)
			c.sendErr(a.op, a.id, statusOf(err), err.Error())
			continue
		}
		c.out <- a.f
	}
}

// writeLoop drains response frames to the socket, flushing when it finds
// the queue empty. That is one syscall per cohort while the read loop
// outruns it; a writer that catches up mid-cohort flushes what it has.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	broken := false
	for f := range c.out {
		if !broken {
			if _, err := bw.Write(f.B); err != nil {
				// The peer is gone: poison the read loop too and keep
				// draining so async senders never block forever.
				broken = true
				c.nc.Close()
			}
		}
		ack := f.flushed
		PutFrame(f)
		if !broken && (len(c.out) == 0 || ack != nil) {
			if err := bw.Flush(); err != nil {
				broken = true
				c.nc.Close()
			}
		}
		if ack != nil {
			close(ack)
		}
	}
	if !broken {
		bw.Flush()
	}
}

// sendErr queues an error response.
func (c *conn) sendErr(op byte, id uint64, status uint16, msg string) {
	f := GetFrame(HeaderSize + len(msg))
	f.B = AppendErrResp(f.B, op, id, status, msg)
	c.out <- f
}

// statusOf classifies an application error. The backpressure arm matters
// for allocation discipline as much as semantics: a shed request's error is
// the bare tkv.ErrBackpressure sentinel, whose Error() string is constant,
// so the rejection response costs no allocation on the path that is hottest
// precisely when the server is overloaded (sendErr's frame is pooled).
func statusOf(err error) uint16 {
	switch {
	case errors.Is(err, tkv.ErrBackpressure):
		return StatusBackpressure
	case errors.Is(err, tkv.ErrNotPrimary):
		return StatusNotPrimary
	case errors.Is(err, tkv.ErrCASMismatch):
		return StatusCASMismatch
	case errors.Is(err, tkv.ErrUser):
		return StatusBadRequest
	default:
		return StatusInternal
	}
}

// internVal returns an immutable value cell holding a copy of b, reusing
// the connection's interned cell when the same small value was put before.
// A new cell is one tkv.NewCell object, and an interned one is keyed by the
// cell's own bytes, so interning it allocates no second copy.
func (c *conn) internVal(b []byte) *string {
	if len(b) > maxInternValue {
		return tkv.NewCell(b)
	}
	if p, ok := c.intern[string(b)]; ok { // no alloc: map lookup keyed by []byte conversion
		return p
	}
	p := tkv.NewCell(b)
	if len(c.intern) < maxInternEntries {
		c.intern[*p] = p
	}
	return p
}

// readLoop decodes and executes frames until the stream ends or turns
// malformed. Single-key ops run inline (order-preserving, allocation-free);
// multi-key ops get a goroutine each and complete out of order. Each time
// it has consumed what the last cohort scan covered, it scans what is
// buffered next.
func (c *conn) readLoop() {
	for {
		if c.window <= 0 {
			if _, err := c.br.Peek(HeaderSize); err != nil {
				return // EOF or reset: normal connection end
			}
			c.warmCohort()
		}
		if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
			return
		}
		h, err := ParseHeader(c.hdr[:], MaxFrame)
		if err != nil {
			// Protocol violation: report once, then poison the stream.
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return
		}
		plen := h.PayloadLen()
		if cap(c.payload) < plen {
			c.payload = make([]byte, plen)
		}
		p := c.payload[:plen]
		if _, err := io.ReadFull(c.br, p); err != nil {
			return
		}
		c.window -= HeaderSize + plen
		if !c.dispatch(h, p) {
			return
		}
	}
}

// warmCohort scans up to tkv.WarmMax requests already buffered, starting
// with the read loop's next one: usually the cohort a pipelining client
// flushed in one write. When two or more of them are gets, it warms their
// key paths in one pass before the first of them runs (tkv.Store.Warm), so
// that their cache misses overlap instead of each get paying its own in
// turn. A lone get is left alone: it would pay its misses twice over. The
// scan consumes nothing and judges nothing: it stops at the first frame
// that is incomplete or malformed, and the read loop meets that frame as
// it would have anyway.
func (c *conn) warmCohort() {
	buf, _ := c.br.Peek(c.br.Buffered()) // asks for no more than is buffered, so cannot fail
	n, off := 0, 0
	for range tkv.WarmMax {
		if len(buf)-off < HeaderSize {
			break
		}
		l := int(le.Uint32(buf[off:]))
		end := off + 4 + l
		if l < headerAfterLen || end > len(buf) {
			break
		}
		if buf[off+4] == OpGet && l == headerAfterLen+8 {
			c.warmKeys[n] = le.Uint64(buf[off+HeaderSize:])
			n++
		}
		off = end
	}
	c.window = off
	if n > 1 {
		c.warmSink += c.srv.store.Warm(c.warmKeys[:n])
	}
}

// dispatch executes one decoded frame, reporting whether the connection is
// still usable (false poisons the stream).
func (c *conn) dispatch(h Header, p []byte) bool {
	st := c.srv.store
	switch h.Op {
	case OpPing:
		f := GetFrame(HeaderSize)
		f.B = AppendBoolResp(f.B, OpPing, h.ID, true)
		c.out <- f
	case OpGet:
		key, err := ParseKeyReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		val, found, err := st.Get(key)
		if err != nil {
			c.sendErr(h.Op, h.ID, statusOf(err), err.Error())
			return true
		}
		f := GetFrame(HeaderSize + 4 + len(val))
		f.B = AppendGetResp(f.B, h.ID, val, found)
		c.out <- f
	case OpPut:
		key, val, err := ParsePutReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		created, cm, err := st.PutRefAsync(key, c.internVal(val))
		if err != nil {
			c.sendErr(h.Op, h.ID, statusOf(err), err.Error())
			return true
		}
		f := GetFrame(HeaderSize)
		f.B = AppendBoolResp(f.B, OpPut, h.ID, created)
		c.deferAck(cm, f, OpPut, h.ID)
	case OpDelete:
		key, err := ParseKeyReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		deleted, cm, err := st.DeleteAsync(key)
		if err != nil {
			c.sendErr(h.Op, h.ID, statusOf(err), err.Error())
			return true
		}
		f := GetFrame(HeaderSize)
		f.B = AppendBoolResp(f.B, OpDelete, h.ID, deleted)
		c.deferAck(cm, f, OpDelete, h.ID)
	case OpCAS:
		key, old, new, err := ParseCASReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		swapped, cm, err := st.CASAsync(key, string(old), string(new))
		if err != nil {
			c.sendErr(h.Op, h.ID, statusOf(err), err.Error())
			return true
		}
		f := GetFrame(HeaderSize)
		f.B = AppendBoolResp(f.B, OpCAS, h.ID, swapped)
		c.deferAck(cm, f, OpCAS, h.ID)
	case OpAdd:
		key, delta, err := ParseAddReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		val, cm, err := st.AddAsync(key, delta)
		if err != nil {
			c.sendErr(h.Op, h.ID, statusOf(err), err.Error())
			return true
		}
		f := GetFrame(HeaderSize + 8)
		f.B = AppendAddResp(f.B, h.ID, val)
		c.deferAck(cm, f, OpAdd, h.ID)
	case OpMGet:
		keys, err := ParseMGetReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		c.spawn(h.ID, func(id uint64) {
			results, err := st.MGet(keys)
			if err != nil {
				c.sendErr(OpMGet, id, statusOf(err), err.Error())
				return
			}
			c.sendResults(OpMGet, id, StatusOK, results)
		})
	case OpBatch:
		// Ask the admission controller before decoding: a shed batch must
		// cost nothing but a pooled error frame, and ParseBatchReq is the
		// allocation (op slice, value strings) we are shedding to avoid.
		if st.ShedLowPriority() {
			c.sendErr(OpBatch, h.ID, StatusBackpressure, tkv.ErrBackpressure.Error())
			return true
		}
		ops, err := ParseBatchReq(p)
		if err != nil {
			c.sendErr(h.Op, h.ID, StatusBadRequest, err.Error())
			return false
		}
		c.spawn(h.ID, func(id uint64) {
			results, err := st.Batch(ops)
			if errors.Is(err, tkv.ErrCASMismatch) {
				c.sendResults(OpBatch, id, StatusCASMismatch, results)
				return
			}
			if err != nil {
				c.sendErr(OpBatch, id, statusOf(err), err.Error())
				return
			}
			c.sendResults(OpBatch, id, StatusOK, results)
		})
	case OpLen:
		c.spawn(h.ID, func(id uint64) {
			n, err := st.Len()
			if err != nil {
				c.sendErr(OpLen, id, statusOf(err), err.Error())
				return
			}
			f := GetFrame(HeaderSize + 8)
			f.B = AppendUintResp(f.B, OpLen, id, uint64(n))
			c.out <- f
		})
	case OpStats:
		c.spawn(h.ID, func(id uint64) {
			data, err := json.Marshal(st.Stats())
			if err != nil {
				c.sendErr(OpStats, id, StatusInternal, err.Error())
				return
			}
			f := GetFrame(HeaderSize + len(data))
			f.B = AppendBytesResp(f.B, OpStats, id, data)
			c.out <- f
		})
	case OpSnap:
		c.spawn(h.ID, func(id uint64) {
			snap, err := st.Snapshot()
			if err != nil {
				c.sendErr(OpSnap, id, statusOf(err), err.Error())
				return
			}
			n := 8
			for _, v := range snap {
				n += 12 + len(v)
			}
			if n > MaxRespFrame-headerAfterLen {
				c.sendErr(OpSnap, id, StatusInternal,
					"snapshot exceeds the wire frame limit")
				return
			}
			f := GetFrame(HeaderSize + n)
			f.B = AppendSnapResp(f.B, id, snap)
			c.out <- f
		})
	case OpReplSub:
		return c.dispatchReplSub(h, p)
	default:
		c.sendErr(h.Op, h.ID, StatusBadRequest,
			fmt.Sprintf("tkvwire: unknown opcode 0x%02x", h.Op))
		return false
	}
	return true
}

// spawn runs fn on its own goroutine, tracked so the connection teardown
// can wait for every in-flight response.
func (c *conn) spawn(id uint64, fn func(id uint64)) {
	c.async.Add(1)
	go func() {
		defer c.async.Done()
		fn(id)
	}()
}

// sendResults queues an mget/batch response.
func (c *conn) sendResults(op byte, id uint64, status uint16, results []tkv.OpResult) {
	n := 4
	for _, r := range results {
		n += 5 + len(r.Value)
	}
	f := GetFrame(HeaderSize + n)
	f.B = AppendResultsResp(f.B, op, id, status, results)
	c.out <- f
}
