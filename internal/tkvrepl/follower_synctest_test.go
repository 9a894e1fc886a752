//go:build goexperiment.synctest

package tkvrepl

// The follower's tests, in bubbles (internal/synctime) over
// synctime.PipeListener: the redial backoff, the idle watchdog and every
// deadline run on the bubble's clock, so each is asserted to the exact fake
// instant, and a wait is synctime.Wait — everything the last write set
// running has run — followed by an exact check.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

func storeConfig(ring int) tkv.Config {
	return tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, ReplRing: ring}
}

// openStore opens a store of cfg; the test closes it inside its bubble.
func openStore(t *testing.T, cfg tkv.Config) *tkv.Store {
	t.Helper()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// serve serves st on a fresh PipeListener. stop closes the server, not the
// store.
func serve(st *tkv.Store) (ln *synctime.PipeListener, srv *tkvwire.Server, stop func()) {
	ln = synctime.NewPipeListener()
	srv = tkvwire.NewServer(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return ln, srv, func() {
		srv.Close()
		<-done
	}
}

// startFollower starts replicating into st through dial; the test stops it
// inside its bubble.
func startFollower(t *testing.T, st *tkv.Store, dial func() (net.Conn, error)) *Follower {
	t.Helper()
	f, err := Start(st, dial)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkConverged lets everything in flight run and then requires the
// follower's applied watermarks at the primary's heads on every shard.
func checkConverged(t *testing.T, primary, follower *tkv.Store) {
	t.Helper()
	synctime.Wait()
	plog, flog := primary.Repl(), follower.Repl()
	for i := 0; i < plog.Shards(); i++ {
		if h, a := plog.Head(i), flog.Applied(i); h != a {
			t.Fatalf("shard %d: the follower applied %d of the primary's %d records", i, a, h)
		}
	}
}

func sameSnapshot(t *testing.T, a, b *tkv.Store) {
	t.Helper()
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(sb) {
		t.Fatalf("snapshots differ in size: %d vs %d", len(sa), len(sb))
	}
	for k, v := range sa {
		if bv, ok := sb[k]; !ok || bv != v {
			t.Fatalf("key %d: %q vs %q (present %v)", k, v, bv, ok)
		}
	}
}

// TestFollowerConverges streams a concurrent write load from a live
// primary into a follower and checks exact convergence once everything in
// flight has run, follower-read behavior, and the lag stats surface.
func TestFollowerConverges(t *testing.T) {
	synctime.Run(t, func() {
		primary, follower := openStore(t, storeConfig(1024)), openStore(t, storeConfig(1024))
		defer primary.Close()
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, _, stop := serve(primary)
		defer stop()
		f := startFollower(t, follower, ln.Dial)
		defer f.Stop()

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					k := uint64((w*131 + i) % 100)
					switch i % 4 {
					case 0, 1:
						primary.Put(k, fmt.Sprintf("w%d-%d", w, i))
					case 2:
						primary.Add(k+1000, 1)
					case 3:
						primary.Delete(k)
					}
				}
			}(w)
		}
		wg.Wait()

		checkConverged(t, primary, follower)
		sameSnapshot(t, primary, follower)
		// Follower serves reads, bounces writes.
		if _, err := follower.Put(1, "nope"); !errors.Is(err, tkv.ErrNotPrimary) {
			t.Fatalf("follower put = %v", err)
		}
		if connected, _, lastErr := f.status(); !connected {
			t.Fatalf("follower not connected: %v", lastErr)
		}
		// The stats surface shows a follower with no lag.
		if rs := follower.Stats().Repl; rs == nil || rs.Role != "follower" || rs.Lag != 0 {
			t.Fatalf("follower stats = %+v", rs)
		}
	})
}

// TestFollowerResyncAfterOverflow starts the follower long after a tiny
// ring has wrapped: the only road to convergence is a snapshot cut.
func TestFollowerResyncAfterOverflow(t *testing.T) {
	synctime.Run(t, func() {
		primary, follower := openStore(t, storeConfig(8)), openStore(t, storeConfig(8))
		defer primary.Close()
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, _, stop := serve(primary)
		defer stop()

		for i := uint64(0); i < 500; i++ {
			if _, err := primary.Put(i%50, fmt.Sprintf("v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		f := startFollower(t, follower, ln.Dial)
		defer f.Stop()

		// Fresh follower (all watermarks 0) replays nothing from a wrapped
		// ring: the primary must cut. Then write more to prove the live
		// tail still flows after the cut.
		checkConverged(t, primary, follower)
		if rs := follower.Stats().Repl; rs.Resyncs == 0 {
			t.Fatal("the follower converged past a wrapped ring without a cut")
		}
		for i := uint64(0); i < 20; i++ {
			if _, err := primary.Put(1000+i, "tail"); err != nil {
				t.Fatal(err)
			}
		}
		checkConverged(t, primary, follower)
		sameSnapshot(t, primary, follower)
	})
}

// TestDrainReadsToTheFence: a follower that is promoted while it is behind
// must finish the stream before it stops. The primary takes 32,000
// acknowledged increments faster than the follower applies them, fences,
// drains its side (everything and the fence frame are on the socket) and
// goes away; drain then Stop must leave every record applied, and drain
// returns when the fence arrives, not at its deadline. Stop alone closes
// the socket under the applier and drops what it had not read yet.
func TestDrainReadsToTheFence(t *testing.T) {
	synctime.Run(t, func() {
		const writers, perWriter = 8, 4000
		// Rings that hold the whole run: the follower falls behind by
		// thousands of records and must get them from the stream, not from
		// a snapshot cut.
		primary, follower := openStore(t, storeConfig(writers*perWriter)), openStore(t, storeConfig(writers*perWriter))
		defer primary.Close()
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, srv, stop := serve(primary)
		f := startFollower(t, follower, ln.Dial)
		defer f.Stop()
		synctime.Wait()

		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := primary.Add(uint64(w*perWriter+i)%64, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		primary.SetReadOnly(true)
		if !srv.DrainRepl(10 * time.Second) {
			t.Fatal("DrainRepl timed out")
		}
		stop()

		start := time.Now()
		fenced := f.drain(10 * time.Second)
		if d := time.Since(start); d != 0 {
			t.Fatalf("drain returned after %v, want at the fence, which was on the socket", d)
		}
		f.Stop()
		plog, flog := primary.Repl(), follower.Repl()
		var head, applied uint64
		for i := 0; i < plog.Shards(); i++ {
			head += plog.Head(i)
			applied += flog.Applied(i)
		}
		if !fenced || applied != head || head != writers*perWriter {
			t.Fatalf("fenced=%v, applied %d of %d records (%d acknowledged)", fenced, applied, head, writers*perWriter)
		}
	})
}

// TestDrainDeadline: a primary that never fences does not hold a promotion
// hostage. drain gives up at its deadline, exactly, and says the stream was
// not fenced; the stream stays up (the primary's heartbeats keep it).
func TestDrainDeadline(t *testing.T) {
	synctime.Run(t, func() {
		primary, follower := openStore(t, storeConfig(1024)), openStore(t, storeConfig(1024))
		defer primary.Close()
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, _, stop := serve(primary)
		defer stop()
		f := startFollower(t, follower, ln.Dial)
		defer f.Stop()
		synctime.Wait()

		const timeout = 100 * time.Millisecond
		start := time.Now()
		if f.drain(timeout) {
			t.Fatal("drain reported a fence the primary never sent")
		}
		if d := time.Since(start); d != timeout {
			t.Fatalf("drain returned after %v, want its deadline, %v", d, timeout)
		}
		if connected, _, _ := f.status(); !connected {
			t.Fatal("drain stopped the stream; only Stop may")
		}
	})
}

// upstream is the primary a test's follower dials: replaced when the
// primary's wire server is.
type upstream struct {
	ln atomic.Pointer[synctime.PipeListener]
}

func (u *upstream) dial() (net.Conn, error) { return u.ln.Load().Dial() }

// TestFollowerReconnects kills the primary's wire server mid-stream and
// brings up a new one on the same store; the applier, whose connection had
// streamed, must redial exactly minBackoff after the drop and finish the
// job.
func TestFollowerReconnects(t *testing.T) {
	synctime.Run(t, func() {
		primary, follower := openStore(t, storeConfig(1024)), openStore(t, storeConfig(1024))
		defer primary.Close()
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, _, stop := serve(primary)
		var up upstream
		up.ln.Store(ln)
		var redialed atomic.Int64 // the fake time of the latest dial
		f := startFollower(t, follower, func() (net.Conn, error) {
			redialed.Store(time.Now().UnixNano())
			return up.dial()
		})
		defer f.Stop()

		for i := uint64(0); i < 200; i++ {
			primary.Put(i, "a")
		}
		checkConverged(t, primary, follower)

		// Hard-drop the wire layer (no drain — like a crashed process whose
		// store survived, the worst case short of data loss).
		drop := time.Now()
		stop()
		for i := uint64(0); i < 200; i++ {
			primary.Put(i, "b")
		}
		ln2, _, stop2 := serve(primary)
		defer stop2()
		up.ln.Store(ln2)

		synctime.Advance(minBackoff)
		if at := time.Unix(0, redialed.Load()); at.Sub(drop) != minBackoff {
			t.Fatalf("the follower redialed %v after the drop, want %v", at.Sub(drop), minBackoff)
		}
		checkConverged(t, primary, follower)
		sameSnapshot(t, primary, follower)
	})
}

// TestFreshFollowerOfReopenedPrimary: a primary with a ring and a WAL takes
// 40 keys and is closed and reopened. Its windows now hold nothing from
// before the reopen, so a fresh follower can only get those keys from
// snapshot cuts: it must be resynced and converge.
func TestFreshFollowerOfReopenedPrimary(t *testing.T) {
	synctime.Run(t, func() {
		cfg := storeConfig(1024)
		cfg.WAL = &tkvwal.Options{Dir: "wal", FS: &tkvwal.SimFS{}}
		primary := openStore(t, cfg)
		for k := uint64(0); k < 40; k++ {
			if _, err := primary.Put(k, fmt.Sprintf("v%d", k)); err != nil {
				t.Fatal(err)
			}
		}
		primary.Close()
		primary = openStore(t, cfg)
		defer primary.Close()
		follower := openStore(t, storeConfig(1024))
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, _, stop := serve(primary)
		defer stop()

		f := startFollower(t, follower, ln.Dial)
		defer f.Stop()
		checkConverged(t, primary, follower)
		sameSnapshot(t, primary, follower)
		if n, _ := follower.Len(); n != 40 {
			t.Fatalf("follower holds %d keys, want 40", n)
		}
		if rs := follower.Stats().Repl; rs.Resyncs < 1 {
			t.Fatalf("follower converged with %d resyncs, want at least 1", rs.Resyncs)
		}
	})
}

// TestFollowerAppliedWaitsForItsLog pins the follower's durability rule: a
// record is applied — in Repl().Applied and in the vector a resubscribe
// would send — only once the follower's own log has made it durable, never
// on the append. The follower's WAL Sync is held while one record arrives;
// ReplApply appends it (the WAL and the head both move, one append) and
// parks, and once everything else has run neither the watermark nor the
// vector has moved; they move when the Sync is let go.
func TestFollowerAppliedWaitsForItsLog(t *testing.T) {
	synctime.Run(t, func() {
		primary := openStore(t, storeConfig(1024))
		defer primary.Close()
		fs := &tkvwal.SimFS{}
		cfg := storeConfig(1024)
		cfg.WAL = &tkvwal.Options{Dir: "wal", FS: fs}
		follower := openStore(t, cfg)
		defer follower.Close()
		follower.SetReadOnly(true)
		ln, _, stop := serve(primary)
		defer stop()
		f := startFollower(t, follower, ln.Dial)
		defer f.Stop()
		defer fs.ReleaseAll() // before Stop: the applier cannot end its stream while parked
		synctime.Wait()

		syncing := fs.HoldSyncs()
		const key = 1
		if _, err := primary.Put(key, "v"); err != nil {
			t.Fatal(err)
		}
		sh := primary.ShardOf(key)
		flog := follower.Repl()
		<-syncing // the follower's log wrote the record and is syncing it
		synctime.Wait()
		if seq := follower.WAL().LastSeq(sh); seq != 1 {
			t.Fatalf("the follower's log is at %d, want the record, 1", seq)
		}
		if h := flog.Head(sh); h != 1 {
			t.Fatalf("head %d with the record in the WAL: one append numbers both", h)
		}
		if a := flog.Applied(sh); a != 0 {
			t.Fatalf("applied %d with the record's Sync still held", a)
		}
		if v := subscribeVector(flog); v[sh] != 0 {
			t.Fatalf("subscribe vector %v with the record's Sync still held", v)
		}

		fs.ReleaseAll()
		checkConverged(t, primary, follower)
		if v := subscribeVector(flog); v[sh] != 1 {
			t.Fatalf("subscribe vector %v once durable, want shard %d at 1", v, sh)
		}
	})
}

// dialLog is a follower's dial function that notes the fake time of every
// dial on a channel and dials the upstream's primary.
func dialLog(up *upstream) (dial func() (net.Conn, error), dials <-chan time.Time) {
	c := make(chan time.Time, 64) // more dials than a test makes: the applier never waits on the log
	return func() (net.Conn, error) {
		c <- time.Now()
		return up.dial()
	}, c
}

// TestFollowerRedialSchedule pins the redial loop's waits, dial by dial:
// while no primary answers they double from minBackoff to maxBackoff and
// stay there; a fenced stream waits maxBackoff; and a stream that got the
// primary's metadata starts the backoff over, so a drop after the fence and
// a reconnect is redialed minBackoff later, not maxBackoff.
func TestFollowerRedialSchedule(t *testing.T) {
	synctime.Run(t, func() {
		primary, follower := openStore(t, storeConfig(1024)), openStore(t, storeConfig(1024))
		defer primary.Close()
		defer follower.Close()
		follower.SetReadOnly(true)
		down := synctime.NewPipeListener()
		down.Close()
		var up upstream
		up.ln.Store(down)
		dial, dials := dialLog(&up)
		f := startFollower(t, follower, dial)
		defer f.Stop()

		prev := <-dials
		next := func(what string, from time.Time, want time.Duration) {
			t.Helper()
			at := <-dials
			if d := at.Sub(from); d != want {
				t.Fatalf("%s: dialed %v after, want %v", what, d, want)
			}
			prev = at
		}
		for i, wait := range []time.Duration{minBackoff, 2 * minBackoff, 4 * minBackoff, 8 * minBackoff, 16 * minBackoff, maxBackoff, maxBackoff} {
			next(fmt.Sprintf("failed dial %d", i+1), prev, wait)
		}

		ln, srv, stop := serve(primary)
		defer stop()
		up.ln.Store(ln)
		next("a primary up", prev, maxBackoff)
		synctime.Wait()
		if connected, _, err := f.status(); !connected {
			t.Fatalf("no stream after dialing a live primary: %v", err)
		}

		primary.SetReadOnly(true)
		if !srv.DrainRepl(time.Second) {
			t.Fatal("DrainRepl timed out")
		}
		fence := time.Now()
		primary.SetReadOnly(false) // back as a primary the next dial subscribes to
		next("after the fence", fence, maxBackoff)
		synctime.Wait()
		if connected, _, err := f.status(); !connected {
			t.Fatalf("no stream after the fence: %v", err)
		}

		drop := time.Now()
		stop()
		next("a drop after a stream", drop, minBackoff)
	})
}

// TestFollowerIdleWatchdog: a primary that reads the subscription and then
// sends nothing — no metadata, no heartbeat — is dropped exactly
// idleTimeout after the subscription, and the next dial comes exactly one
// backoff after the drop: minBackoff, since the silent stream never
// streamed.
func TestFollowerIdleWatchdog(t *testing.T) {
	synctime.Run(t, func() {
		follower := openStore(t, storeConfig(1024))
		defer follower.Close()
		follower.SetReadOnly(true)
		ln := synctime.NewPipeListener()
		defer ln.Close()
		var up upstream
		up.ln.Store(ln)
		dropped := make(chan time.Time, 1)
		go func() { // the silent primary: one connection
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			var hdr [tkvwire.HeaderSize]byte
			if _, err := io.ReadFull(nc, hdr[:]); err != nil {
				t.Errorf("reading the subscription: %v", err)
				return
			}
			h, err := tkvwire.ParseHeader(hdr[:], tkvwire.MaxFrame)
			if err != nil || h.Op != tkvwire.OpReplSub {
				t.Errorf("first frame: %+v, %v; want a subscription", h, err)
				return
			}
			io.Copy(io.Discard, nc) // the subscription's payload, then silence until the follower hangs up
			dropped <- time.Now()
		}()
		dial, dials := dialLog(&up)
		f := startFollower(t, follower, dial)
		defer f.Stop()

		subscribed := <-dials
		drop := <-dropped
		if d := drop.Sub(subscribed); d != idleTimeout {
			t.Fatalf("the follower dropped the silent primary after %v, want %v", d, idleTimeout)
		}
		ln.Close() // the redial finds no primary
		if d := (<-dials).Sub(drop); d != minBackoff {
			t.Fatalf("the follower redialed %v after the drop, want %v", d, minBackoff)
		}
	})
}
