package tkvrepl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

func openStore(t *testing.T, ring int) *tkv.Store {
	t.Helper()
	st, err := tkv.Open(tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, ReplRing: ring})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// servePrimary starts a wire server for st on loopback, closed when the
// test ends, and returns its address and the server.
func servePrimary(t *testing.T, st *tkv.Store) (string, *tkvwire.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := tkvwire.NewServer(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String(), srv
}

// eventually polls check until it reports nothing left to wait for,
// failing the test with its last report once d has passed.
func eventually(t *testing.T, d time.Duration, check func() string) {
	t.Helper()
	for deadline := time.Now().Add(d); ; time.Sleep(time.Millisecond) {
		msg := check()
		if msg == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// waitConverged waits until the follower's applied watermarks reach the
// primary's heads on every shard.
func waitConverged(t *testing.T, primary, follower *tkv.Store) {
	t.Helper()
	plog, flog := primary.Repl(), follower.Repl()
	eventually(t, 10*time.Second, func() string {
		lag := uint64(0)
		for i := 0; i < plog.Shards(); i++ {
			if h, a := plog.Head(i), flog.Applied(i); h > a {
				lag += h - a
			}
		}
		if lag == 0 {
			return ""
		}
		return fmt.Sprintf("follower never converged, lag %d", lag)
	})
}

// waitConnected blocks until the applier has a live subscription. A
// failover drill only makes sense with a follower actually attached —
// fencing a primary nobody follows strands the fence.
func waitConnected(t *testing.T, f *Follower) {
	t.Helper()
	eventually(t, 5*time.Second, func() string {
		if connected, _, _ := f.Status(); !connected {
			return "follower never connected"
		}
		return ""
	})
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
// primary into a follower and checks exact convergence, follower-read
// behavior, and the lag stats surface.
func TestFollowerConverges(t *testing.T) {
	primary := openStore(t, 1024)
	follower := openStore(t, 1024)
	follower.SetReadOnly(true)
	addr, _ := servePrimary(t, primary)

	f, err := Start(follower, addr)
	if err != nil {
		t.Fatal(err)
	}
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

	waitConverged(t, primary, follower)
	sameSnapshot(t, primary, follower)

	// Follower serves reads, bounces writes.
	if _, err := follower.Put(1, "nope"); !errors.Is(err, tkv.ErrNotPrimary) {
		t.Fatalf("follower put = %v", err)
	}
	if connected, _, lastErr := f.Status(); !connected {
		t.Fatalf("follower not connected: %v", lastErr)
	}
	// The stats surface shows a follower with bounded lag.
	rs := follower.Stats().Repl
	if rs == nil || rs.Role != "follower" {
		t.Fatalf("follower stats = %+v", rs)
	}
}

// TestFollowerResyncAfterOverflow starts the follower long after a tiny
// ring has wrapped: the only road to convergence is a snapshot cut.
func TestFollowerResyncAfterOverflow(t *testing.T) {
	primary := openStore(t, 8)
	follower := openStore(t, 8)
	follower.SetReadOnly(true)
	addr, _ := servePrimary(t, primary)

	for i := uint64(0); i < 500; i++ {
		if _, err := primary.Put(i%50, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	f, err := Start(follower, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// Fresh follower (all watermarks 0) replays nothing from a wrapped
	// ring: the primary must cut. Give it a beat then write more to
	// prove the live tail still flows after the cut.
	waitConverged(t, primary, follower)
	for i := uint64(0); i < 20; i++ {
		if _, err := primary.Put(1000+i, "tail"); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, primary, follower)
	sameSnapshot(t, primary, follower)
}

// TestFailoverGracefulZeroLoss is the kill-and-recover drill: load a
// primary, drain and stop it, promote the follower, and verify not one
// acknowledged update is missing on the new primary.
func TestFailoverGracefulZeroLoss(t *testing.T) {
	primary := openStore(t, 1024)
	follower := openStore(t, 1024)
	follower.SetReadOnly(true)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := tkvwire.NewServer(primary)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()

	f, err := Start(follower, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	waitConnected(t, f)

	acked := uint64(0)
	for i := uint64(0); i < 2000; i++ {
		if _, err := primary.Add(i%64, 1); err != nil {
			t.Fatal(err)
		}
		acked++
	}

	// Graceful failover: fence writes, drain the stream, kill the
	// primary, promote the follower.
	primary.SetReadOnly(true)
	if !srv.DrainRepl(5 * time.Second) {
		t.Fatal("DrainRepl timed out")
	}
	srv.Close()
	<-served

	// The drained stream ends in a fence; wait for the applier to see it.
	eventually(t, 5*time.Second, func() string {
		if _, fenced, _ := f.Status(); !fenced {
			return "follower never saw the fence"
		}
		return ""
	})
	f.Stop()
	follower.SetReadOnly(false)

	// Zero lost acknowledged updates: the counters on the promoted
	// follower must sum to exactly the acked increments.
	sum := uint64(0)
	for k := uint64(0); k < 64; k++ {
		v, ok, err := follower.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			var n uint64
			fmt.Sscanf(v, "%d", &n)
			sum += n
		}
	}
	if sum != acked {
		t.Fatalf("lost updates: follower sum %d, acked %d", sum, acked)
	}

	// The promoted follower is a writable primary with a coherent ring:
	// a new follower can chain from it.
	if _, err := follower.Put(9999, "promoted"); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	if rs := follower.Stats().Repl; rs.Role != "primary" {
		t.Fatalf("promoted role = %q", rs.Role)
	}
}

// TestDrainReadsToTheFence: a follower that is promoted while it is behind
// must finish the stream before it stops. The primary takes 32,000
// acknowledged increments faster than the follower applies them, fences,
// drains its side (everything and the fence frame are on the socket) and
// goes away; Drain then Stop must leave every record applied. Stop alone
// closes the socket under the applier and drops what it had not read yet.
func TestDrainReadsToTheFence(t *testing.T) {
	const writers, perWriter = 8, 4000
	// Rings that hold the whole run: the follower falls behind by thousands
	// of records and must get them from the stream, not from a snapshot cut.
	primary := openStore(t, writers*perWriter)
	follower := openStore(t, writers*perWriter)
	follower.SetReadOnly(true)
	addr, srv := servePrimary(t, primary)

	f, err := Start(follower, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	waitConnected(t, f)

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
	srv.Close()

	fenced := f.Drain(10 * time.Second)
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
}

// TestDrainDeadline: a primary that never fences does not hold a promotion
// hostage. Drain gives up at its deadline and says the stream was not fenced.
func TestDrainDeadline(t *testing.T) {
	primary := openStore(t, 1024)
	follower := openStore(t, 1024)
	follower.SetReadOnly(true)
	addr, _ := servePrimary(t, primary)

	f, err := Start(follower, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	waitConnected(t, f)

	start := time.Now()
	if f.Drain(100 * time.Millisecond) {
		t.Fatal("Drain reported a fence the primary never sent")
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 5*time.Second {
		t.Fatalf("Drain returned after %v, want its 100ms deadline", d)
	}
	if connected, _, _ := f.Status(); !connected {
		t.Fatal("Drain stopped the stream; only Stop may")
	}
}

// TestFollowerReconnects kills the primary's wire server mid-stream and
// brings up a new one on the same store; the applier must redial and
// finish the job.
func TestFollowerReconnects(t *testing.T) {
	primary := openStore(t, 1024)
	follower := openStore(t, 1024)
	follower.SetReadOnly(true)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := tkvwire.NewServer(primary)
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(ln) }()

	f, err := Start(follower, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	for i := uint64(0); i < 200; i++ {
		primary.Put(i, "a")
	}
	waitConverged(t, primary, follower)

	// Hard-drop the wire layer (no drain — like a crashed process whose
	// store survived, the worst case short of data loss).
	srv.Close()
	<-served

	for i := uint64(0); i < 200; i++ {
		primary.Put(i, "b")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := tkvwire.NewServer(primary)
	served2 := make(chan struct{})
	go func() { defer close(served2); srv2.Serve(ln2) }()
	t.Cleanup(func() { srv2.Close(); <-served2 })

	waitConverged(t, primary, follower)
	sameSnapshot(t, primary, follower)
}

// TestFreshFollowerOfReopenedPrimary: a primary with a ring and a WAL takes
// 40 keys and is closed and reopened. Its windows now hold nothing from
// before the reopen, so a fresh follower can only get those keys from
// snapshot cuts: it must be resynced and converge. The test keeps its own
// deadlines, the server's Close included, because a shipper that streams
// records a window does not hold never lets Close return.
func TestFreshFollowerOfReopenedPrimary(t *testing.T) {
	cfg := tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, ReplRing: 1024,
		WAL: &tkvwal.Options{Dir: t.TempDir()}}
	primary, err := tkv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 40; k++ {
		if _, err := primary.Put(k, fmt.Sprintf("v%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	primary.Close()
	if primary, err = tkv.Open(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	follower := openStore(t, 1024)
	follower.SetReadOnly(true)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := tkvwire.NewServer(primary)
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(ln) }()
	defer func() {
		closed := make(chan struct{})
		go func() { srv.Close(); <-served; close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("Server.Close did not return")
		}
	}()

	f, err := Start(follower, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	waitConverged(t, primary, follower)
	sameSnapshot(t, primary, follower)
	if n, _ := follower.Len(); n != 40 {
		t.Fatalf("follower holds %d keys, want 40", n)
	}
	if rs := follower.Stats().Repl; rs.Resyncs < 1 {
		t.Fatalf("follower converged with %d resyncs, want at least 1", rs.Resyncs)
	}
}

// TestFollowerAppliedWaitsForItsLog pins the follower's durability rule: a
// record is applied — in Repl().Applied and in the vector a resubscribe
// would send — only once the follower's own log has made it durable, never
// on the append. The follower's WAL Sync is held while one record arrives;
// ReplApply appends it (the WAL and the head both move, one append) and
// parks, and neither the watermark nor the vector may move until the Sync is
// let go.
func TestFollowerAppliedWaitsForItsLog(t *testing.T) {
	primary := openStore(t, 1024)
	fs := &tkvwal.SimFS{}
	follower, err := tkv.Open(tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, ReplRing: 1024,
		WAL: &tkvwal.Options{Dir: "wal", FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(follower.Close)
	follower.SetReadOnly(true)
	addr, _ := servePrimary(t, primary)
	f, err := Start(follower, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	defer fs.ReleaseAll() // before Stop: the applier cannot end its stream while parked
	waitConnected(t, f)

	fs.HoldSyncs()
	const key = 1
	if _, err := primary.Put(key, "v"); err != nil {
		t.Fatal(err)
	}
	sh := primary.ShardOf(key)
	flog := follower.Repl()
	eventually(t, 5*time.Second, func() string {
		if follower.WAL().LastSeq(sh) != 1 {
			return "the follower never appended the record"
		}
		return ""
	})
	time.Sleep(50 * time.Millisecond) // room for a watermark that moves early to show it
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
	waitConverged(t, primary, follower)
	if v := subscribeVector(flog); v[sh] != 1 {
		t.Fatalf("subscribe vector %v once durable, want shard %d at 1", v, sh)
	}
}
