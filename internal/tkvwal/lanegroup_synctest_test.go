//go:build goexperiment.synctest

package tkvwal

// Arrival-driven group formation, in bubbles (internal/synctime): the test
// holds a group's fsync on a heldDisk, decides what is staged behind it,
// and reads each later group's size, and the fake time it took, off the
// device. In a bubble the lane's fallback timer fires only once every
// goroutine is blocked, so it never beats a writer on its way back, and
// it fires exactly when nobody is coming: one measured fsync after the
// wait began, and the heldDisk makes the measured fsync syncCost.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// inBubble runs a shape's test in a bubble of its own.
func inBubble(f func(t *testing.T, shards int)) func(t *testing.T, shards int) {
	return func(t *testing.T, shards int) { synctime.Run(t, func() { f(t, shards) }) }
}

// laneWriters are closed-loop writers spread over the shards — writer i
// on shard i modulo the shard count: Append, report staged, Wait, check
// that the ack is honest, repeat until told to leave or the log reports an
// error. A released group's writers race back to Append all at once, as
// many at a time as there are processors: that race is what the lane's
// tickets and its count of returning writers must survive.
type laneWriters struct {
	w      *WAL
	staged chan struct{} // a writer's Append has returned
	leave  []atomic.Bool // writer i exits after the ack it is waiting for
	result []chan error  // writer i's terminal Wait outcome (nil when it left)

	mu  []sync.Mutex // shard i's ordering lock, the one Append asks for: assigns seq[i]
	seq []uint64
}

func newLaneWriters(w *WAL, n int) *laneWriters {
	ws := &laneWriters{w: w, staged: make(chan struct{}), leave: make([]atomic.Bool, n), result: make([]chan error, n),
		mu: make([]sync.Mutex, len(w.shards)), seq: make([]uint64, len(w.shards))}
	for i := range ws.result {
		ws.result[i] = make(chan error, 1)
	}
	return ws
}

func (ws *laneWriters) start(i int) {
	sh := i % len(ws.w.shards)
	go func() {
		for {
			ws.mu[sh].Lock()
			ws.seq[sh]++
			seq := ws.seq[sh]
			c := ws.w.Append(sh, seq, []tkvlog.Entry{{Key: uint64(i), Val: "x"}})
			ws.mu[sh].Unlock()
			ws.staged <- struct{}{}
			err := c.Wait()
			if d := ws.w.shards[sh].durable.Load(); err == nil && d < seq {
				err = fmt.Errorf("acked shard %d seq %d with the shard durable to %d", sh, seq, d)
			}
			if err != nil || ws.leave[i].Load() {
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

// depart marks writers lo..hi-1 to leave after the ack they are waiting
// for.
func (ws *laneWriters) depart(lo, hi int) {
	for i := lo; i < hi; i++ {
		ws.leave[i].Store(true)
	}
}

// results checks that writers lo..hi-1 ended with want (errors.Is).
func (ws *laneWriters) results(t *testing.T, lo, hi int, want error) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := <-ws.result[i]; !errors.Is(err, want) {
			t.Fatalf("writer %d: %v, want %v", i, err, want)
		}
	}
}

// release lets the held Sync return and the lane release its group: on
// return the released writers have raced back, and the lane has either
// collected them into its next Sync or is waiting for more.
func release(d *heldDisk) {
	d.Release()
	synctime.Advance(syncCost)
}

// cycle releases the held group and waits for the lane's next Sync: the
// records it carries, and the time from the release to it — syncCost when
// the group formed from arrivals, plus the fallback when the timer ended
// it.
func cycle(t *testing.T, d *heldDisk) (records int, took time.Duration) {
	t.Helper()
	start := time.Now()
	release(d)
	records = d.next(t)
	return records, time.Since(start)
}

// fullLaneGroup brings n writers to a steady state and returns with the
// first full group's fsync held. Writer 0 goes first and alone, so the
// first group is exactly its record; the other n-1 stage behind the held
// fsync. From here on a group forms only because the lane counted its
// writers in.
func fullLaneGroup(t *testing.T, w *WAL, d *heldDisk, n int) *laneWriters {
	t.Helper()
	ws := newLaneWriters(w, n)
	ws.start(0)
	ws.awaitStaged(t, 1)
	if got := d.next(t); got != 1 {
		t.Fatalf("first group: %d records, want writer 0's one", got)
	}
	for i := 1; i < n; i++ {
		ws.start(i)
	}
	ws.awaitStaged(t, n-1)
	// n-1 records are staged and writer 0 is on its way back. An eager
	// lane would collect the n-1 now; this one waits for the writer it
	// just released, and no longer than that writer takes.
	if got, took := cycle(t, d); got != n || took != syncCost {
		t.Fatalf("second group: %d records after %v, want all %d writers after the Sync's %v", got, took, n, syncCost)
	}
	ws.awaitStaged(t, 1)
	return ws
}

// TestSharedGroupCommitAcrossShards is the amortization proof and the
// group-formation one: n closed-loop writers — one on each of n shards,
// or all of them on one — ride one fsync per round, in groups of exactly
// n from the second group on, each collected the moment its last writer
// is back, and the fallback timer never fires. How often the lane blocks
// is the scheduler's choice: it may find a group's writers already back,
// or be woken early by the late wake-up of a writer it already collected.
func TestSharedGroupCommitAcrossShards(t *testing.T) {
	const n = 8
	eachShape(t, n, inBubble(func(t *testing.T, shards int) { testGroupCommitAcrossShards(t, n, shards) }))
}

func testGroupCommitAcrossShards(t *testing.T, n, shards int) {
	const rounds = 6
	w, d := openHeld(t, shards)
	defer closeHeld(w, d)
	ws := fullLaneGroup(t, w, d, n)
	for r := 3; r <= rounds; r++ {
		if got, took := cycle(t, d); got != n || took != syncCost {
			t.Fatalf("group %d: %d records after %v, want %d after %v", r, got, took, n, syncCost)
		}
		ws.awaitStaged(t, n)
	}
	ws.depart(0, n)
	release(d)
	ws.results(t, 0, n, nil)
	st := w.Stats()
	if st.Fsyncs != rounds || st.GroupMax != uint64(n) || st.Appends != uint64(1+(rounds-1)*n) {
		t.Fatalf("fsyncs %d group max %d appends %d, want %d, %d, %d",
			st.Fsyncs, st.GroupMax, st.Appends, rounds, n, 1+(rounds-1)*n)
	}
	if st.GroupWaitTimeouts != 0 {
		t.Fatalf("%d groups ended by the fallback timer, want none", st.GroupWaitTimeouts)
	}
}

// TestLaneFallbackOnceWhenLoadDrops: when half the writers leave, the
// group after their last ack waits for all n, is ended by the fallback
// timer exactly one measured fsync (syncCost) after the lane began to
// wait, and carries the n/2 who did return; that sets the expectation, so
// every later group forms from arrivals alone, with no timer.
func TestLaneFallbackOnceWhenLoadDrops(t *testing.T) {
	const n = 8
	eachShape(t, n, inBubble(func(t *testing.T, shards int) { testFallbackOnceWhenLoadDrops(t, n, shards) }))
}

func testFallbackOnceWhenLoadDrops(t *testing.T, n, shards int) {
	w, d := openHeld(t, shards)
	defer closeHeld(w, d)
	ws := fullLaneGroup(t, w, d, n)
	ws.depart(n/2, n)
	if got, took := cycle(t, d); got != n/2 || took != 2*syncCost {
		t.Fatalf("group after the drop: %d records after %v, want %d after the Sync and one fallback (%v)",
			got, took, n/2, 2*syncCost)
	}
	ws.awaitStaged(t, n/2)
	ws.results(t, n/2, n, nil)
	if st := w.Stats(); st.GroupWaitTimeouts != 1 {
		t.Fatalf("timeouts %d, want exactly the one group that paid the fallback", st.GroupWaitTimeouts)
	}
	for r := 0; r < 3; r++ {
		if got, took := cycle(t, d); got != n/2 || took != syncCost {
			t.Fatalf("group %d after the drop: %d records after %v, want %d after %v", r+2, got, took, n/2, syncCost)
		}
		ws.awaitStaged(t, n/2)
	}
	if st := w.Stats(); st.GroupWaitTimeouts != 1 {
		t.Fatalf("timeouts %d after the expectation adapted, want still 1", st.GroupWaitTimeouts)
	}
	ws.depart(0, n/2)
	release(d)
	ws.results(t, 0, n/2, nil)
}

// TestLaneStopDuringWait: a lane blocked waiting for writers who are not
// coming must not hold the ones who did. Abandon releases every parked
// waiter with the fence error; Close flushes them and acks. The lane is
// stopped before its fallback could fire: the test never blocks while the
// lane waits.
func TestLaneStopDuringWait(t *testing.T) {
	const n = 8
	// parked returns with n/2 writers staged and parked on their ticket,
	// the lane waiting for the other half, who have left.
	parked := func(t *testing.T, w *WAL, d *heldDisk) *laneWriters {
		ws := fullLaneGroup(t, w, d, n)
		ws.depart(n/2, n)
		release(d)
		ws.awaitStaged(t, n/2)
		ws.results(t, n/2, n, nil)
		return ws
	}
	abandon := func(t *testing.T, shards int) {
		w, d := openHeld(t, shards)
		defer closeHeld(w, d)
		ws := parked(t, w, d)
		w.Abandon() // returns once the lane loop has exited
		ws.results(t, 0, n/2, ErrAbandoned)
		if st := w.Stats(); st.Fsyncs != 2 || st.GroupWaitTimeouts != 0 {
			t.Fatalf("fsyncs %d timeouts %d: the abandoned group must not have been flushed", st.Fsyncs, st.GroupWaitTimeouts)
		}
	}
	closing := func(t *testing.T, shards int) {
		w, d := openHeld(t, shards)
		defer closeHeld(w, d)
		ws := parked(t, w, d)
		ws.depart(0, n/2)
		d.ReleaseAll()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		ws.results(t, 0, n/2, nil) // each got its ack from Close's flush
		st := w.Stats()
		if lag := st.DurableLag(); lag != 0 {
			t.Fatalf("durable lag %d after Close", lag)
		}
		if st.GroupWaitTimeouts != 0 {
			t.Fatalf("timeouts %d: Close, not the fallback, flushed the parked group", st.GroupWaitTimeouts)
		}
	}
	t.Run("abandon", func(t *testing.T) { eachShape(t, n, inBubble(abandon)) })
	t.Run("close", func(t *testing.T) { eachShape(t, n, inBubble(closing)) })
}
