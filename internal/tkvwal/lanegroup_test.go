package tkvwal

// Arrival-driven group formation and the fence's publication order, all
// driven through gateFS: the test holds a group's fsync, decides what is
// staged behind it, and reads each later group's size off the device.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// laneWriters are closed-loop writers on lane 0, spread over the shards
// it owns — writer i alone on shard i in the shared layout, all of them
// on shard 0 in the per-shard one: Append, report staged, Wait, repeat
// until told to leave or the log reports an error.
type laneWriters struct {
	w      *WAL
	staged chan struct{} // a writer's Append has returned
	leave  []atomic.Bool // writer i exits after the ack it is waiting for
	result []chan error  // writer i's terminal Wait outcome (nil when it left)

	mu  sync.Mutex // the ordering lock Append asks for: assigns seq, per shard
	seq []uint64
}

func newLaneWriters(w *WAL, n int) *laneWriters {
	ws := &laneWriters{w: w, staged: make(chan struct{}), leave: make([]atomic.Bool, n), result: make([]chan error, n),
		seq: make([]uint64, len(w.shards))}
	for i := range ws.result {
		ws.result[i] = make(chan error, 1)
	}
	return ws
}

func (ws *laneWriters) start(i int) {
	owned := ws.w.lanes[0].shards
	sh := owned[i%len(owned)].idx
	go func() {
		for {
			ws.mu.Lock()
			ws.seq[sh]++
			c := ws.w.Append(sh, ws.seq[sh], []tkvlog.Entry{{Key: uint64(i), Val: "x"}})
			ws.mu.Unlock()
			ws.staged <- struct{}{}
			if err := c.Wait(); err != nil || ws.leave[i].Load() {
				ws.result[i] <- err
				return
			}
		}
	}()
}

// awaitStaged waits until k more Appends have returned.
func (ws *laneWriters) awaitStaged(t *testing.T, k int) {
	t.Helper()
	for ; k > 0; k-- {
		select {
		case <-ws.staged:
		case <-time.After(10 * time.Second):
			t.Fatal("writers did not come back")
		}
	}
}

// fullLaneGroup brings n writers to a steady state and returns with the
// first full group's fsync held. Writer 0 goes first and alone, so the
// first group is exactly its record; the other n-1 stage behind the held
// fsync. The fallback timer is ruled out: from here on a group forms
// only because the lane counted its writers in.
func fullLaneGroup(t *testing.T, w *WAL, g *gateFS, n int) *laneWriters {
	t.Helper()
	setLaneFallback(w.lanes[0], time.Hour)
	ws := newLaneWriters(w, n)
	ws.start(0)
	ws.awaitStaged(t, 1)
	if got := g.next(t); got != 1 {
		t.Fatalf("first group: %d records, want writer 0's one", got)
	}
	for i := 1; i < n; i++ {
		ws.start(i)
	}
	ws.awaitStaged(t, n-1)
	g.finish(nil)
	// n-1 records are staged and writer 0 is on its way back. An eager
	// lane would collect the n-1 now; this one waits for the writer it
	// just released.
	if got := g.next(t); got != n {
		t.Fatalf("second group: %d records, want all %d writers", got, n)
	}
	ws.awaitStaged(t, 1)
	return ws
}

// TestSharedGroupCommitAcrossShards is the amortization proof and the
// group-formation one: n closed-loop writers on one lane — spread over
// its n shards, or all on the one shard a per-shard lane owns — ride one
// fsync per round, in groups of exactly n from the second group on, with
// the fallback timer out of the picture.
func TestSharedGroupCommitAcrossShards(t *testing.T) {
	eachMode(t, testGroupCommitAcrossShards)
}

func testGroupCommitAcrossShards(t *testing.T, mode Mode) {
	const n, rounds = 8, 6
	w, g := openGated(t, mode, n)
	ws := fullLaneGroup(t, w, g, n)
	for r := 3; r <= rounds; r++ {
		g.finish(nil)
		if got := g.next(t); got != n {
			t.Fatalf("group %d: %d records, want %d", r, got, n)
		}
		ws.awaitStaged(t, n)
	}
	for i := range ws.leave {
		ws.leave[i].Store(true)
	}
	g.finish(nil)
	for i, res := range ws.result {
		if err := <-res; err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := w.Stats()
	if st.Fsyncs != rounds || st.GroupMax != n || st.Appends != 1+(rounds-1)*n {
		t.Fatalf("fsyncs %d group max %d appends %d, want %d, %d, %d",
			st.Fsyncs, st.GroupMax, st.Appends, rounds, n, 1+(rounds-1)*n)
	}
	if st.GroupWaits == 0 || st.GroupWaitTimeouts != 0 {
		t.Fatalf("group waits %d timeouts %d: groups should form by waiting, never by timer", st.GroupWaits, st.GroupWaitTimeouts)
	}
}

// TestLaneLoneWriterNeverWaits: a serial writer's own record is the
// whole expectation, so every Append is collected at once — the lane
// never blocks for arrivals and never arms the fallback timer (which is
// at its default here, not ruled out).
func TestLaneLoneWriterNeverWaits(t *testing.T) {
	eachMode(t, testLoneWriterNeverWaits)
}

func testLoneWriterNeverWaits(t *testing.T, mode Mode) {
	w, g := openGated(t, mode, 4)
	for seq := uint64(1); seq <= 20; seq++ {
		c := w.Append(int(seq%4), seq, []tkvlog.Entry{{Key: seq, Val: "x"}})
		if got := g.next(t); got != 1 {
			t.Fatalf("append %d: group of %d", seq, got)
		}
		g.finish(nil)
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.GroupWaits != 0 || st.Fsyncs != 20 {
		t.Fatalf("group waits %d fsyncs %d, want 0 and 20", st.GroupWaits, st.Fsyncs)
	}
}

// TestLaneFallbackOnceWhenLoadDrops: when half the writers leave, the
// group after their last ack waits for all n, is ended by the fallback
// timer, and carries the n/2 who did return; that sets the expectation,
// so the next group forms from arrivals alone (the timer is ruled out
// again before it, so an expectation still at n would hang the test).
func TestLaneFallbackOnceWhenLoadDrops(t *testing.T) {
	eachMode(t, testFallbackOnceWhenLoadDrops)
}

func testFallbackOnceWhenLoadDrops(t *testing.T, mode Mode) {
	const n = 8
	w, g := openGated(t, mode, n)
	ws := fullLaneGroup(t, w, g, n)
	for i := n / 2; i < n; i++ {
		ws.leave[i].Store(true)
	}
	// Long enough that the returning half is surely staged first.
	setLaneFallback(w.lanes[0], 50*time.Millisecond)
	g.finish(nil)
	if got := g.next(t); got != n/2 {
		t.Fatalf("group after the drop: %d records, want %d", got, n/2)
	}
	ws.awaitStaged(t, n/2)
	if st := w.Stats(); st.GroupWaitTimeouts != 1 {
		t.Fatalf("timeouts %d, want exactly the one group that paid the fallback", st.GroupWaitTimeouts)
	}
	setLaneFallback(w.lanes[0], time.Hour)
	for r := 0; r < 3; r++ {
		g.finish(nil)
		if got := g.next(t); got != n/2 {
			t.Fatalf("group %d after the drop: %d records, want %d", r+2, got, n/2)
		}
		ws.awaitStaged(t, n/2)
	}
	if st := w.Stats(); st.GroupWaitTimeouts != 1 {
		t.Fatalf("timeouts %d after the expectation adapted, want still 1", st.GroupWaitTimeouts)
	}
	for i := 0; i < n/2; i++ {
		ws.leave[i].Store(true)
	}
	g.finish(nil)
	for i, res := range ws.result {
		if err := <-res; err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
}

// TestLaneStopDuringWait: a lane blocked waiting for writers who are not
// coming must not hold the ones who did. Abandon releases every parked
// waiter with the fence error; Close flushes them and acks.
func TestLaneStopDuringWait(t *testing.T) {
	const n = 8
	// parked returns with n/2 writers staged and parked on their ticket,
	// the lane waiting (no timer) for the other half, who have left.
	parked := func(t *testing.T, mode Mode) (*WAL, *gateFS, *laneWriters) {
		w, g := openGated(t, mode, n)
		ws := fullLaneGroup(t, w, g, n)
		for i := n / 2; i < n; i++ {
			ws.leave[i].Store(true)
		}
		g.finish(nil)
		ws.awaitStaged(t, n/2)
		for i := n / 2; i < n; i++ {
			if err := <-ws.result[i]; err != nil {
				t.Fatalf("leaver %d: %v", i, err)
			}
		}
		return w, g, ws
	}
	abandon := func(t *testing.T, mode Mode) {
		w, _, ws := parked(t, mode)
		w.Abandon() // returns once the lane loops have exited
		for i := 0; i < n/2; i++ {
			if err := <-ws.result[i]; !errors.Is(err, ErrAbandoned) {
				t.Fatalf("parked writer %d: %v, want the ErrAbandoned fence", i, err)
			}
		}
		if st := w.Stats(); st.Fsyncs != 2 {
			t.Fatalf("fsyncs %d: the abandoned group must not have been flushed", st.Fsyncs)
		}
	}
	closing := func(t *testing.T, mode Mode) {
		w, g, ws := parked(t, mode)
		for i := 0; i < n/2; i++ {
			ws.leave[i].Store(true)
		}
		g.open()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n/2; i++ {
			if err := <-ws.result[i]; err != nil {
				t.Fatalf("parked writer %d: %v, want its record flushed by Close", i, err)
			}
		}
		st := w.Stats()
		if lag := st.DurableLag(); lag != 0 {
			t.Fatalf("durable lag %d after Close", lag)
		}
	}
	t.Run("abandon", func(t *testing.T) { eachMode(t, abandon) })
	t.Run("close", func(t *testing.T) { eachMode(t, closing) })
}

// TestFenceIsOnePublication parks an appender inside fail, between its
// two publications: the fence is stored, failedc is not yet closed. The
// appender must already get a handle that fails. (When the flag and the
// handle were two stores in the other order, Append returned a nil
// *Commit here, and a nil Commit's Wait is an ack.)
func TestFenceIsOnePublication(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		w, _ := openGated(t, mode, 2)
		boom := errors.New("boom")
		w.fenced.Store(newFence(w, boom)) // fail's first step, and no more
		select {
		case <-w.Failed():
			t.Fatal("Failed() already fired: not between the publications")
		default:
		}
		c := w.Append(1, 1, []tkvlog.Entry{{Key: 1, Val: "v"}})
		if c == nil {
			t.Fatal("Append returned a nil Commit for a fenced sync log: its Wait would ack")
		}
		if err := c.Wait(); !errors.Is(err, boom) {
			t.Fatalf("Wait = %v, want the fence", err)
		}
		if !errors.Is(w.Err(), boom) {
			t.Fatalf("Err = %v", w.Err())
		}
		w.fail(boom)
		<-w.Failed()
	})
}

// TestAbandonRacingAppendSeesAbandoned: appenders running flat out
// across an Abandon must each end on ErrAbandoned. With a closed flag
// raised before the fence, one of them could find the flag first and
// fence the log with ErrClosed instead.
func TestAbandonRacingAppendSeesAbandoned(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		for round := 0; round < 20; round++ {
			const writers = 4
			w, g := openGated(t, mode, writers)
			g.open() // real files, free fsyncs: the race is with Abandon, not the device
			var wg sync.WaitGroup
			errs := make([]error, writers)
			started := make(chan struct{}, writers)
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for seq := uint64(1); ; seq++ {
						if seq == 2 {
							started <- struct{}{}
						}
						if errs[i] = w.Append(i, seq, []tkvlog.Entry{{Key: seq, Val: "v"}}).Wait(); errs[i] != nil {
							return
						}
					}
				}(i)
			}
			for i := 0; i < writers; i++ {
				<-started
			}
			w.Abandon()
			wg.Wait()
			for i, err := range errs {
				if !errors.Is(err, ErrAbandoned) || errors.Is(err, ErrClosed) {
					t.Fatalf("round %d writer %d ended on %v, want ErrAbandoned", round, i, err)
				}
			}
			if !errors.Is(w.Err(), ErrAbandoned) {
				t.Fatalf("log fenced with %v", w.Err())
			}
		}
	})
}
