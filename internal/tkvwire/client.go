package tkvwire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/tkv"
)

// ErrClosed is returned by calls on a closed (or read-failed) connection.
var ErrClosed = errors.New("tkvwire: connection closed")

// StatusError is an application-level error response from the server.
type StatusError struct {
	Status uint16
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("tkvwire: server status %d: %s", e.Status, e.Msg)
}

// Is maps statuses onto the tkv sentinel errors, so errors.Is(err,
// tkv.ErrUser), errors.Is(err, tkv.ErrCASMismatch) and errors.Is(err,
// tkv.ErrBackpressure) work across the wire exactly as they do in-process.
func (e *StatusError) Is(target error) bool {
	switch target {
	case tkv.ErrUser:
		return e.Status == StatusBadRequest
	case tkv.ErrCASMismatch:
		return e.Status == StatusCASMismatch
	case tkv.ErrBackpressure:
		return e.Status == StatusBackpressure
	case tkv.ErrNotPrimary:
		return e.Status == StatusNotPrimary
	}
	return false
}

// call is one in-flight request's completion slot.
type call struct {
	ready   chan struct{}
	op      byte
	flags   byte
	status  uint16
	payload *Frame // response payload (no header); nil on transport error
	err     error
}

var callPool = sync.Pool{New: func() any { return &call{ready: make(chan struct{}, 1)} }}

// Conn is a client connection speaking the binary protocol. It is safe for
// concurrent use: calls from many goroutines interleave on the wire
// (pipelining), each matched to its response by request id.
//
// Writes leave in cohorts. The server answers a pipeline with one write,
// so the read loop wakes its callers together; they are then runnable,
// not blocked on wmu, and nothing a sender can read under the lock says
// that more frames are coming. So a caller appends its frame, yields the
// processor once (runtime.Gosched) to let every caller that is already
// runnable append too, and flushes only if no flush has covered its frame
// meanwhile: one caller per cohort pays the write syscall. A lone caller
// yields to nobody and flushes its own frame at once; nothing waits on a
// timer. A failed flush closes the socket, so the read loop fails the
// callers that skipped theirs.
type Conn struct {
	nc net.Conn

	wmu     sync.Mutex
	bw      *bufio.Writer
	sent    uint64 // frames appended to bw: a call's send sequence number
	flushed uint64 // value of sent when bw was last flushed
	flushes uint64

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]*call
	readErr error // set once the read loop dies; fails all later calls
}

// Dial connects to a tkvwire server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewConn(nc), nil
}

// NewConn speaks the protocol over an established transport, which the
// Conn owns from here on (Close closes it).
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		pending: make(map[uint64]*call),
	}
	go c.readLoop()
	return c
}

// ConnStats counts a connection's sends: Flushes/Calls is the share of
// calls that paid a write on the transport.
type ConnStats struct {
	Calls, Flushes uint64
}

// WireStats returns the connection's send counters.
func (c *Conn) WireStats() ConnStats {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return ConnStats{Calls: c.sent, Flushes: c.flushes}
}

// Close closes the connection; in-flight calls fail with ErrClosed.
func (c *Conn) Close() error { return c.nc.Close() }

// readLoop matches response frames to pending calls by id.
func (c *Conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var hdr [HeaderSize]byte
	var err error
	for {
		if _, err = io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		var h Header
		if h, err = ParseHeader(hdr[:], MaxRespFrame); err != nil {
			break
		}
		payload := GetFrame(h.PayloadLen())
		payload.B = payload.B[:h.PayloadLen()]
		if _, err = io.ReadFull(br, payload.B); err != nil {
			PutFrame(payload)
			break
		}
		c.pmu.Lock()
		cl := c.pending[h.ID]
		delete(c.pending, h.ID)
		c.pmu.Unlock()
		if cl == nil {
			// A response nobody asked for: the stream is out of sync.
			PutFrame(payload)
			err = fmt.Errorf("%w: unsolicited response id %d", ErrFrame, h.ID)
			break
		}
		cl.op, cl.flags, cl.status, cl.payload = h.Op, h.Flags, h.Status, payload
		cl.ready <- struct{}{}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		err = ErrClosed
	}
	c.pmu.Lock()
	c.readErr = err
	for id, cl := range c.pending {
		delete(c.pending, id)
		cl.err = err
		cl.ready <- struct{}{}
	}
	c.pmu.Unlock()
	c.nc.Close()
}

// do registers the call, writes req (consuming the frame), and waits for
// the response. The returned call must be released with c.release.
func (c *Conn) do(id uint64, req *Frame) (*call, error) {
	cl := callPool.Get().(*call)
	cl.err, cl.payload = nil, nil
	c.pmu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.pmu.Unlock()
		callPool.Put(cl)
		PutFrame(req)
		return nil, err
	}
	c.pending[id] = cl
	c.pmu.Unlock()

	// Cohort flush (see Conn): append, yield once, then flush unless a
	// flush since the append already carried this frame.
	c.wmu.Lock()
	_, werr := c.bw.Write(req.B)
	c.sent++
	seq := c.sent
	c.wmu.Unlock()
	PutFrame(req)
	if werr == nil {
		runtime.Gosched()
		c.wmu.Lock()
		if c.flushed < seq {
			c.flushed = c.sent
			c.flushes++
			werr = c.bw.Flush()
		}
		c.wmu.Unlock()
	}
	if werr != nil {
		// Closing fails the read loop, which fails every pending call:
		// this one and those whose frames this flush was carrying.
		c.nc.Close()
	}

	<-cl.ready
	if cl.err != nil {
		err := cl.err
		callPool.Put(cl)
		return nil, err
	}
	return cl, nil
}

// release returns a completed call's resources to their pools.
func (c *Conn) release(cl *call) {
	if cl.payload != nil {
		PutFrame(cl.payload)
		cl.payload = nil
	}
	callPool.Put(cl)
}

// errOf converts a non-OK response into an error (nil for OK).
func errOf(cl *call) error {
	if cl.status == StatusOK {
		return nil
	}
	return &StatusError{Status: cl.status, Msg: string(cl.payload.B)}
}

// Hello performs the protocol handshake, requesting feature bits, and
// returns the bits the server granted (requested ∩ served). Optional:
// connections that skip it keep the pre-handshake opcode family, which is
// the whole KV surface — only the replication opcodes require it.
func (c *Conn) Hello(features uint64) (uint64, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 10)
	f.B = AppendHelloReq(f.B, id, ProtoVersion, features)
	cl, err := c.do(id, f)
	if err != nil {
		return 0, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return 0, err
	}
	_, granted, err := ParseHello(cl.payload.B)
	return granted, err
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize)
	f.B = AppendPingReq(f.B, id)
	cl, err := c.do(id, f)
	if err != nil {
		return err
	}
	defer c.release(cl)
	return errOf(cl)
}

// Get reads one key.
func (c *Conn) Get(key uint64) (string, bool, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 8)
	f.B = AppendGetReq(f.B, id, key)
	cl, err := c.do(id, f)
	if err != nil {
		return "", false, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return "", false, err
	}
	return ParseGetResp(cl.flags, cl.payload.B)
}

// Put stores val under key, reporting whether the key was created.
func (c *Conn) Put(key uint64, val string) (bool, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 12 + len(val))
	f.B = AppendPutReq(f.B, id, key, val)
	cl, err := c.do(id, f)
	if err != nil {
		return false, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return false, err
	}
	return cl.flags&FlagBool != 0, nil
}

// Delete removes key, reporting whether it was present.
func (c *Conn) Delete(key uint64) (bool, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 8)
	f.B = AppendDeleteReq(f.B, id, key)
	cl, err := c.do(id, f)
	if err != nil {
		return false, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return false, err
	}
	return cl.flags&FlagBool != 0, nil
}

// CAS compare-and-swaps key from old to new, reporting whether it swapped.
func (c *Conn) CAS(key uint64, old, new string) (bool, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 16 + len(old) + len(new))
	f.B = AppendCASReq(f.B, id, key, old, new)
	cl, err := c.do(id, f)
	if err != nil {
		return false, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return false, err
	}
	return cl.flags&FlagBool != 0, nil
}

// Add adds delta to the counter under key and returns the new value.
func (c *Conn) Add(key uint64, delta int64) (int64, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 16)
	f.B = AppendAddReq(f.B, id, key, delta)
	cl, err := c.do(id, f)
	if err != nil {
		return 0, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return 0, err
	}
	n, err := ParseUintResp(OpAdd, cl.payload.B)
	return int64(n), err
}

// MGet reads many keys in one round trip; results come back in key order.
func (c *Conn) MGet(keys []uint64) ([]tkv.OpResult, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 4 + 8*len(keys))
	f.B = AppendMGetReq(f.B, id, keys)
	cl, err := c.do(id, f)
	if err != nil {
		return nil, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return nil, err
	}
	return ParseResultsResp(OpMGet, cl.payload.B)
}

// Batch executes ops atomically. A batch refused whole by a failed cas
// compare returns the describing results alongside an error matching
// tkv.ErrCASMismatch via errors.Is, mirroring Store.Batch.
func (c *Conn) Batch(ops []tkv.Op) ([]tkv.OpResult, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize + 64 + 64*len(ops)) // size hint; appends may grow it
	f.B = AppendBatchReq(f.B, id, ops)
	cl, err := c.do(id, f)
	if err != nil {
		return nil, err
	}
	defer c.release(cl)
	if cl.status == StatusCASMismatch {
		results, perr := ParseResultsResp(OpBatch, cl.payload.B)
		if perr != nil {
			return nil, perr
		}
		return results, &StatusError{Status: StatusCASMismatch, Msg: "batch cas compare failed"}
	}
	if err := errOf(cl); err != nil {
		return nil, err
	}
	return ParseResultsResp(OpBatch, cl.payload.B)
}

// Len returns the store's key count under a consistent cut.
func (c *Conn) Len() (int, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize)
	f.B = AppendEmptyReq(f.B, OpLen, id)
	cl, err := c.do(id, f)
	if err != nil {
		return 0, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return 0, err
	}
	n, err := ParseUintResp(OpLen, cl.payload.B)
	return int(n), err
}

// Snapshot returns a consistent copy of the whole store.
func (c *Conn) Snapshot() (map[uint64]string, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize)
	f.B = AppendEmptyReq(f.B, OpSnap, id)
	cl, err := c.do(id, f)
	if err != nil {
		return nil, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return nil, err
	}
	return ParseSnapResp(cl.payload.B)
}

// Stats returns the server's statistics.
func (c *Conn) Stats() (tkv.Stats, error) {
	id := c.nextID.Add(1)
	f := GetFrame(HeaderSize)
	f.B = AppendEmptyReq(f.B, OpStats, id)
	cl, err := c.do(id, f)
	if err != nil {
		return tkv.Stats{}, err
	}
	defer c.release(cl)
	if err := errOf(cl); err != nil {
		return tkv.Stats{}, err
	}
	var st tkv.Stats
	err = json.Unmarshal(cl.payload.B, &st)
	return st, err
}
