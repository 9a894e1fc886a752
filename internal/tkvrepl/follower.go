// Package tkvrepl is the follower side of tkv replication: an applier
// that subscribes to a primary's write-set stream over the binary wire
// protocol and replays it into a local store.
//
// The applier connects through the dial function it was started with,
// subscribes (tkvwire.OpReplSub) with the store's stream identity and
// per-shard applied watermarks, and then consumes the stream: records
// replay through Store.ReplApply (the batch apply path, logging from its
// commit — replaying an ordered committed log is the paper's "prevent"
// endpoint: a transaction that cannot conflict by construction), snapshot
// cuts replace whole shards through ReplRestoreShard, and metadata frames
// refresh the per-shard lag watermarks the store reports in Stats. The
// connection retries with backoff until Stop — a restarted primary is
// re-joined automatically, and a stream-identity change makes the primary
// resync us from snapshots rather than trusting stale watermarks.
//
// The local store must be opened with a replication log
// (Config.ReplRing > 0) and is normally read-only (SetReadOnly(true), so
// external writes bounce with ErrNotPrimary) until Promote makes it a
// writable primary. Promote first lets the applier finish what a fenced or
// dying primary already put on the socket (stopping alone would close the
// socket under it), and the store's log already carries the primary's
// sequence numbering, so a later follower of the promoted store resumes
// from coherent watermarks.
package tkvrepl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// idleTimeout bounds how long a stream read may sit without frames. The
// primary heartbeats metadata every 200ms, so a silent stream means a
// dead or partitioned primary; the applier drops the connection and
// redials.
const idleTimeout = 2 * time.Second

// backoff bounds for the redial loop.
const (
	minBackoff = 50 * time.Millisecond
	maxBackoff = time.Second
)

// Follower replicates a primary into a local store. Create with Start,
// end with Promote or Stop.
type Follower struct {
	store *tkv.Store
	dial  func() (net.Conn, error)
	stop  chan struct{}
	done  chan struct{}

	mu        sync.Mutex
	streamID  uint64 // last stream identity heard; sent on resubscribe
	connected bool
	fenced    bool
	lastErr   error
	// ended is closed when the current connection attempt returns; run
	// replaces it before each attempt.
	ended chan struct{}
}

// Start begins replicating into store, which must carry a replication log,
// from the primary's wire server that dial connects to. The applier calls
// dial for every connection attempt and runs until Promote or Stop.
func Start(store *tkv.Store, dial func() (net.Conn, error)) (*Follower, error) {
	if store.Repl() == nil {
		return nil, errors.New("tkvrepl: store has no replication log (set ReplRing)")
	}
	f := &Follower{
		store: store,
		dial:  dial,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go f.run()
	return f, nil
}

// Stop ends replication and waits for the applier to exit. Idempotent.
// The store is left as-is, still read-only.
func (f *Follower) Stop() {
	f.mu.Lock()
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.mu.Unlock()
	<-f.done
}

// Promote turns the follower's store into a writable primary. It lets
// the connection that is live now end on its own — the primary's fence
// frame, or its close or death once everything it had written has been
// read and applied — for at most timeout, stops the applier, and clears
// the store's read-only flag. fenced reports whether the last stream ended
// in a fence: then the store holds every write the primary acknowledged.
// gap is, per shard, the primary's head as last heard minus what was
// applied: what the promotion did not take over.
func (f *Follower) Promote(timeout time.Duration) (fenced bool, gap []uint64) {
	fenced = f.drain(timeout)
	f.Stop()
	for _, sh := range f.store.Stats().Repl.Shards {
		gap = append(gap, sh.Lag)
	}
	f.store.SetReadOnly(false)
	return fenced, gap
}

// drain waits for the live connection to end on its own, for at most
// timeout, and reports whether the last stream ended in a fence. Between
// connections it returns at once. It stops nothing.
func (f *Follower) drain(timeout time.Duration) (fenced bool) {
	f.mu.Lock()
	ended := f.ended
	f.mu.Unlock()
	if ended != nil {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-ended:
		case <-t.C:
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fenced
}

// status reports the applier's connection state: whether a stream is
// live, whether the primary fenced it (clean end of stream — everything
// shipped), and the last connection error.
func (f *Follower) status() (connected, fenced bool, lastErr error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected, f.fenced, f.lastErr
}

// run is the redial loop. The wait before a redial doubles from minBackoff
// up to maxBackoff while attempts fail; a connection that streamed (it got
// the primary's metadata) starts it over, and a fence waits maxBackoff: the
// primary is going away on purpose, and may restart, or we may be promoted.
func (f *Follower) run() {
	defer close(f.done)
	wait := minBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		ended := make(chan struct{})
		f.mu.Lock()
		f.ended = ended
		f.mu.Unlock()
		err := f.stream()
		f.mu.Lock()
		streamed := f.connected
		f.connected = false
		f.lastErr = err
		f.mu.Unlock()
		close(ended)
		switch {
		case err == nil:
			wait = maxBackoff
		case streamed:
			wait = minBackoff
		}
		select {
		case <-f.stop:
			return
		case <-time.After(wait):
		}
		wait = min(2*wait, maxBackoff)
	}
}

// subscribeVector is what a subscription claims to hold, per shard: the
// applied watermarks, never the heads. A record past its shard's watermark
// may still be waiting on this store's own log, and the primary resumes
// each shard right after what the vector claims.
func subscribeVector(log *tkv.ReplLog) []uint64 {
	v := make([]uint64, log.Shards())
	for i := range v {
		v[i] = log.Applied(i)
	}
	return v
}

// stream runs one connection to completion: nil on a clean fence, an
// error otherwise.
func (f *Follower) stream() error {
	nc, err := f.dial()
	if err != nil {
		return err
	}
	defer nc.Close()
	// Unblock the read loop when Stop is called mid-stream.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-f.stop:
			nc.Close()
		case <-watchDone:
		}
	}()

	log := f.store.Repl()
	nshards := log.Shards()
	applied := subscribeVector(log)
	f.mu.Lock()
	streamID := f.streamID
	f.mu.Unlock()

	req := tkvwire.AppendReplSubReq(nil, 1, streamID, applied)
	nc.SetWriteDeadline(time.Now().Add(idleTimeout))
	if _, err := nc.Write(req); err != nil {
		return fmt.Errorf("tkvrepl: subscribe write: %w", err)
	}
	nc.SetWriteDeadline(time.Time{})

	br := bufio.NewReaderSize(nc, 256<<10)
	var hdr [tkvwire.HeaderSize]byte
	var payload []byte
	var rec tkvlog.Record
	for {
		nc.SetReadDeadline(time.Now().Add(idleTimeout))
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return fmt.Errorf("tkvrepl: stream read: %w", err)
		}
		h, err := tkvwire.ParseHeader(hdr[:], tkvwire.MaxRespFrame)
		if err != nil {
			return err
		}
		plen := h.PayloadLen()
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		p := payload[:plen]
		if _, err := io.ReadFull(br, p); err != nil {
			return fmt.Errorf("tkvrepl: stream read: %w", err)
		}
		if h.Status != tkvwire.StatusOK {
			return fmt.Errorf("tkvrepl: primary refused (status %d): %s", h.Status, p)
		}
		switch h.Op {
		case tkvwire.OpReplMeta:
			id, heads, err := tkvwire.ParseReplMeta(p)
			if err != nil {
				return err
			}
			if len(heads) != nshards {
				return fmt.Errorf("tkvrepl: meta has %d shards, store %d", len(heads), nshards)
			}
			for i, head := range heads {
				log.NoteRemoteHead(i, head)
			}
			f.mu.Lock()
			f.streamID = id
			f.connected = true
			f.fenced = false
			f.mu.Unlock()
		case tkvwire.OpReplRec:
			if n, err := rec.Decode(p); err != nil {
				return fmt.Errorf("tkvrepl: record: %w", err)
			} else if n != len(p) {
				return fmt.Errorf("tkvrepl: %d trailing bytes after record", len(p)-n)
			}
			shard := int(rec.Shard)
			if shard >= nshards {
				return fmt.Errorf("tkvrepl: record for shard %d of %d", shard, nshards)
			}
			have := log.Applied(shard)
			if rec.Seq <= have {
				continue // replayed tail after a reconnect; already applied
			}
			if rec.Seq != have+1 {
				return fmt.Errorf("tkvrepl: sequence gap on shard %d: have %d, got %d",
					shard, have, rec.Seq)
			}
			if err := f.store.ReplApply(&rec); err != nil {
				return err
			}
			// Applying a record proves the remote head is at least its
			// sequence; keep the lag watermark live between heartbeats.
			log.NoteRemoteHead(shard, rec.Seq)
		case tkvwire.OpReplCut:
			shard32, seq, pairs, err := tkvwire.ParseReplCut(p)
			if err != nil {
				return err
			}
			if int(shard32) >= nshards {
				return fmt.Errorf("tkvrepl: cut for shard %d of %d", shard32, nshards)
			}
			if err := f.store.ReplRestoreShard(int(shard32), pairs, seq); err != nil {
				return err
			}
		case tkvwire.OpReplFence:
			f.mu.Lock()
			f.fenced = true
			f.mu.Unlock()
			return nil
		default:
			return fmt.Errorf("tkvrepl: unexpected opcode 0x%02x on stream", h.Op)
		}
	}
}
