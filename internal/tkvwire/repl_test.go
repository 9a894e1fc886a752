package tkvwire

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// startReplServer is startServerWith plus access to the store and server,
// which the replication tests need (drain, read-only toggling).
func startReplServer(t testing.TB, cfg tkv.Config) (*tkv.Store, *Server, string) {
	t.Helper()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatalf("tkv.Open: %v", err)
	}
	t.Cleanup(st.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return st, srv, ln.Addr().String()
}

// TestReplSubWithoutReplLogRefused: a store without a replication log
// refuses a subscription with StatusBadRequest, and the refusal is a reply:
// the connection keeps serving.
func TestReplSubWithoutReplLogRefused(t *testing.T) {
	_, _, addr := startReplServer(t, tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64})
	r := replRawDial(t, addr)
	r.write(AppendReplSubReq(nil, 1, 0, make([]uint64, 2)))
	if h, p := r.read(); h.Op != OpReplSub || h.Status != StatusBadRequest {
		t.Fatalf("subscription to a store without a replication log: op 0x%02x status %d (%s), want bad request", h.Op, h.Status, p)
	}
	r.write(AppendPingReq(nil, 2))
	if h, _ := r.read(); h.Op != OpPing || h.Status != StatusOK || h.ID != 2 {
		t.Fatalf("ping after the refusal: %+v", h)
	}
}

// TestMixedVersionCompat pins the compatibility contract: a client that
// speaks only the 0x01–0x0B family — every client older than replication —
// keeps working against a replicating server.
func TestMixedVersionCompat(t *testing.T) {
	_, _, addr := startReplServer(t, tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64, ReplRing: 64})
	c := dialTest(t, addr)
	if created, err := c.Put(5, "five"); err != nil || !created {
		t.Fatalf("old-client put: %v %v", created, err)
	}
	if v, found, err := c.Get(5); err != nil || !found || v != "five" {
		t.Fatalf("old-client get: %q %v %v", v, found, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("old-client ping: %v", err)
	}
}

// replRawConn is a hand-rolled wire client for driving the replication
// stream without the request/response Conn machinery.
type replRawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func replRawDial(t *testing.T, addr string) *replRawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &replRawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (r *replRawConn) write(b []byte) {
	r.t.Helper()
	if _, err := r.nc.Write(b); err != nil {
		r.t.Fatalf("write: %v", err)
	}
}

// read returns the next frame, failing the test on a dead connection.
func (r *replRawConn) read() (Header, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		r.t.Fatalf("read header: %v", err)
	}
	h, err := ParseHeader(hdr[:], MaxRespFrame)
	if err != nil {
		r.t.Fatalf("parse header: %v", err)
	}
	p := make([]byte, h.PayloadLen())
	if _, err := io.ReadFull(r.br, p); err != nil {
		r.t.Fatalf("read payload: %v", err)
	}
	return h, p
}

func TestReplSubShardMismatch(t *testing.T) {
	_, _, addr := startReplServer(t, tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64, ReplRing: 64})
	r := replRawDial(t, addr)
	r.write(AppendReplSubReq(nil, 2, 0, make([]uint64, 8))) // server has 2 shards
	h, p := r.read()
	if h.Status != StatusBadRequest {
		t.Fatalf("status = %d (%s), want bad request", h.Status, p)
	}
}

func TestReplSubOnFollowerRefused(t *testing.T) {
	st, _, addr := startReplServer(t, tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64, ReplRing: 64})
	st.SetReadOnly(true)
	r := replRawDial(t, addr)
	r.write(AppendReplSubReq(nil, 2, 0, make([]uint64, 2)))
	if h, _ := r.read(); h.Status != StatusNotPrimary {
		t.Fatalf("status = %d, want not-primary", h.Status)
	}

	// Every write verb bounces with the same status, which errors.Is maps to
	// tkv.ErrNotPrimary; it is a reply, so the connection keeps serving reads.
	c := dialTest(t, addr)
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"put", func() error { _, err := c.Put(1, "x"); return err }},
		{"delete", func() error { _, err := c.Delete(1); return err }},
		{"cas", func() error { _, err := c.CAS(1, "", "x"); return err }},
		{"add", func() error { _, err := c.Add(1, 1); return err }},
		{"batch", func() error { _, err := c.Batch([]tkv.Op{{Kind: tkv.OpPut, Key: 1, Value: "x"}}); return err }},
	} {
		t.Run(w.name, func(t *testing.T) {
			if err := w.write(); !errors.Is(err, tkv.ErrNotPrimary) {
				t.Errorf("follower %s = %v, want ErrNotPrimary", w.name, err)
			}
		})
	}
	if _, err := c.Batch([]tkv.Op{{Kind: tkv.OpGet, Key: 1}}); err != nil {
		t.Errorf("follower get-only batch: %v", err)
	}
	if _, found, err := c.Get(1); err != nil || found {
		t.Errorf("follower get after bounced writes: found=%v err=%v", found, err)
	}
}

// subscribe subscribes and returns after the first metadata frame.
func (r *replRawConn) subscribe(streamID uint64, applied []uint64) {
	r.t.Helper()
	r.write(AppendReplSubReq(nil, 2, streamID, applied))
	h, _ := r.read()
	if h.Op != OpReplMeta || h.Status != StatusOK {
		r.t.Fatalf("first stream frame: %+v", h)
	}
}

// TestReplStreamShipsRecords drives a subscription end to end over a raw
// socket: live tail shipping, correct record decode, heartbeat metadata,
// and a drain fence closing the stream cleanly.
func TestReplStreamShipsRecords(t *testing.T) {
	st, srv, addr := startReplServer(t, tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64, ReplRing: 256})
	for i := uint64(0); i < 10; i++ {
		if _, err := st.Put(i, "pre"); err != nil {
			t.Fatal(err)
		}
	}
	r := replRawDial(t, addr)
	r.subscribe(0, make([]uint64, 2))

	// Pre-subscription writes replay from the ring; then live writes
	// tail. Collect until we have all 12 records.
	if _, err := st.Put(100, "live"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(3); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]tkvlog.Entry{}
	seen := 0
	var rec tkvlog.Record
	for seen < 12 {
		h, p := r.read()
		switch h.Op {
		case OpReplMeta: // heartbeats interleave freely
		case OpReplRec:
			if n, err := rec.Decode(p); err != nil || n != len(p) {
				t.Fatalf("record decode: %d/%d, %v", n, len(p), err)
			}
			for _, e := range rec.Entries {
				got[e.Key] = e
			}
			seen++
		default:
			t.Fatalf("unexpected op 0x%02x", h.Op)
		}
	}
	if e := got[100]; e.Val != "live" || e.Del {
		t.Fatalf("live record = %+v", e)
	}
	if e := got[3]; !e.Del {
		t.Fatalf("delete record = %+v", e)
	}

	// Graceful drain: read-only fence, drain, and the stream must end
	// with OpReplFence.
	st.SetReadOnly(true)
	if !srv.DrainRepl(5 * time.Second) {
		t.Fatal("DrainRepl timed out")
	}
	for {
		h, _ := r.read()
		if h.Op == OpReplFence {
			break
		}
		if h.Op != OpReplMeta && h.Op != OpReplRec {
			t.Fatalf("unexpected op 0x%02x before fence", h.Op)
		}
	}
}

// TestReplStreamCutOnEviction subscribes with a cursor the ring has
// already evicted and expects a whole-shard snapshot cut.
func TestReplStreamCutOnEviction(t *testing.T) {
	st, _, addr := startReplServer(t, tkv.Config{Shards: 1, PoolSize: 2, Buckets: 64, ReplRing: 8})
	for i := uint64(0); i < 100; i++ {
		if _, err := st.Put(i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	r := replRawDial(t, addr)
	// Claim progress at seq 1 under the current stream identity: long
	// evicted, so the shipper must cut.
	r.subscribe(st.Repl().StreamID(), []uint64{1})
	for {
		h, p := r.read()
		if h.Op == OpReplMeta {
			continue
		}
		if h.Op != OpReplCut {
			t.Fatalf("op 0x%02x, want cut", h.Op)
		}
		shard, seq, pairs, err := ParseReplCut(p)
		if err != nil {
			t.Fatal(err)
		}
		if shard != 0 || seq != 100 || len(pairs) != 100 {
			t.Fatalf("cut shard=%d seq=%d pairs=%d", shard, seq, len(pairs))
		}
		return
	}
}

// TestReplStreamResyncOnIdentityChange subscribes claiming progress under
// a different stream identity; every shard with claimed progress must be
// resynced by snapshot even though the sequences exist in the ring.
func TestReplStreamResyncOnIdentityChange(t *testing.T) {
	st, _, addr := startReplServer(t, tkv.Config{Shards: 1, PoolSize: 2, Buckets: 64, ReplRing: 256})
	for i := uint64(0); i < 20; i++ {
		if _, err := st.Put(i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	r := replRawDial(t, addr)
	r.subscribe(st.Repl().StreamID()+1, []uint64{10})
	for {
		h, _ := r.read()
		if h.Op == OpReplMeta {
			continue
		}
		if h.Op != OpReplCut {
			t.Fatalf("op 0x%02x, want cut after identity change", h.Op)
		}
		return
	}
}

func TestReplCodecRoundTrips(t *testing.T) {
	applied := []uint64{3, 0, 7}
	frame := AppendReplSubReq(nil, 4, 0xabc, applied)
	h, p := header(t, frame, MaxFrame)
	if h.Op != OpReplSub {
		t.Fatalf("op 0x%02x", h.Op)
	}
	id, got, err := ParseReplSubReq(p)
	if err != nil || id != 0xabc || len(got) != 3 || got[0] != 3 || got[2] != 7 {
		t.Fatalf("sub parse = %x %v %v", id, got, err)
	}
	if _, _, err := ParseReplSubReq(p[:len(p)-1]); err == nil {
		t.Fatal("truncated sub accepted")
	}

	heads := []uint64{8, 9}
	frame = AppendReplMeta(nil, 4, 0xdef, heads)
	h, p = header(t, frame, MaxRespFrame)
	if h.Op != OpReplMeta {
		t.Fatalf("op 0x%02x", h.Op)
	}
	id, hgot, err := ParseReplMeta(p)
	if err != nil || id != 0xdef || len(hgot) != 2 || hgot[1] != 9 {
		t.Fatalf("meta parse = %x %v %v", id, hgot, err)
	}

	pairs := []tkvlog.Entry{{Key: 1, Val: "a"}, {Key: 2, Val: ""}}
	frame = AppendReplCut(nil, 4, 3, 55, pairs)
	h, p = header(t, frame, MaxRespFrame)
	if h.Op != OpReplCut {
		t.Fatalf("op 0x%02x", h.Op)
	}
	shard, seq, pgot, err := ParseReplCut(p)
	if err != nil || shard != 3 || seq != 55 || len(pgot) != 2 || pgot[0].Val != "a" {
		t.Fatalf("cut parse = %d %d %v %v", shard, seq, pgot, err)
	}
	if _, _, _, err := ParseReplCut(p[:len(p)-1]); err == nil {
		t.Fatal("truncated cut accepted")
	}
}
