package tkvwal

// The lane's tests that need no clock: a lone writer's groups and the
// fence's publication order, driven through a SimFS that holds every Sync.
// The group-formation tests, whose outcome turns on the lane's fallback
// timer, run in a bubble (lanegroup_synctest_test.go).

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// syncCost is what a Sync costs on the lane tests' SimFS. In a bubble it is
// the whole of what the lane measures, so its fsync EMA, and with it the
// fallback timer, is exactly this (under laneWaitMax).
const syncCost = time.Millisecond

// recordSize is the size of every record the lane tests append: one entry
// with a one-byte value.
var recordSize = len((&tkvlog.Record{Entries: []tkvlog.Entry{{Val: "x"}}}).Append(nil))

// heldDisk is a SimFS that holds every Sync of the log over it until the
// test releases it. It is what makes the group-commit tests deterministic:
// while a group's Sync is held, the test decides exactly which records are
// staged behind it, and the lane is known to be inside Sync — touching
// nothing else — until released. The records a Sync makes durable are
// that group's size, however many shards (and so Write calls) it came
// from.
type heldDisk struct {
	*SimFS
	held <-chan int
}

// openHeld opens a log over a heldDisk whose Syncs cost syncCost. closeHeld
// closes it: a test in a bubble defers it there, one in real time registers
// it with t.Cleanup.
func openHeld(t *testing.T, shards int) (*WAL, *heldDisk) {
	t.Helper()
	fs := &SimFS{}
	fs.SetSyncCost(syncCost)
	w, err := Open(Options{Dir: "wal", Shards: shards, FS: fs}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	return w, &heldDisk{SimFS: fs, held: fs.HoldSyncs()}
}

// next waits for the log to enter its next Sync and returns the records it
// is making durable. The Sync stays held until Release.
func (d *heldDisk) next(t *testing.T) int {
	t.Helper()
	select {
	case n := <-d.held:
		if n%recordSize != 0 {
			t.Fatalf("a Sync of %d bytes, not whole %d-byte records", n, recordSize)
		}
		return n / recordSize
	case <-time.After(10 * time.Second):
		t.Fatal("no Sync entered: the group never formed")
		return 0
	}
}

// closeHeld lets every Sync through and closes the log.
func closeHeld(w *WAL, d *heldDisk) {
	d.ReleaseAll()
	w.Close()
}

// TestLaneLoneWriterNeverWaits: a serial writer's own record is the
// whole expectation, so every Append is collected at once — the lane
// never blocks for arrivals and never arms the fallback timer.
func TestLaneLoneWriterNeverWaits(t *testing.T) { eachShape(t, 4, testLoneWriterNeverWaits) }

func testLoneWriterNeverWaits(t *testing.T, shards int) {
	w, d := openHeld(t, shards)
	t.Cleanup(func() { closeHeld(w, d) })
	seq := make([]uint64, shards)
	for i := 0; i < 20; i++ {
		sh := i % shards
		seq[sh]++
		c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Val: "x"}})
		if got := d.next(t); got != 1 {
			t.Fatalf("append %d: group of %d", i, got)
		}
		d.Release()
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.GroupWaits != 0 || st.Fsyncs != 20 {
		t.Fatalf("group waits %d fsyncs %d, want 0 and 20", st.GroupWaits, st.Fsyncs)
	}
}

// TestFenceIsOnePublication parks an appender inside fail, between its
// two publications: the fence is stored, failedc is not yet closed. The
// appender must already get a handle that fails. (When the flag and the
// handle were two stores in the other order, Append returned a nil
// *Commit here, and a nil Commit's Wait is an ack.)
func TestFenceIsOnePublication(t *testing.T) { eachShape(t, 2, testFenceIsOnePublication) }

func testFenceIsOnePublication(t *testing.T, shards int) {
	w, d := openHeld(t, shards)
	t.Cleanup(func() { closeHeld(w, d) })
	boom := errors.New("boom")
	w.fenced.Store(newFence(w, boom)) // fail's first step, and no more
	select {
	case <-w.Failed():
		t.Fatal("Failed() already fired: not between the publications")
	default:
	}
	c := w.Append(shards-1, 1, []tkvlog.Entry{{Key: 1, Val: "v"}})
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
}

// TestAbandonRacingAppendSeesAbandoned: appenders running flat out
// across an Abandon must each end on ErrAbandoned. With a closed flag
// raised before the fence, one of them could find the flag first and
// fence the log with ErrClosed instead.
func TestAbandonRacingAppendSeesAbandoned(t *testing.T) {
	const writers = 4
	eachShape(t, writers, func(t *testing.T, shards int) { testAbandonRacingAppend(t, writers, shards) })
}

func testAbandonRacingAppend(t *testing.T, writers, shards int) {
	for round := 0; round < 20; round++ {
		// Free fsyncs: the race is with Abandon, not the device.
		w, err := Open(Options{Dir: "wal", Shards: shards, FS: &SimFS{}}, noApply)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		var wg sync.WaitGroup
		mu := make([]sync.Mutex, shards) // shard i's ordering lock, the one Append asks for: assigns seq[i]
		seq := make([]uint64, shards)
		errs := make([]error, writers)
		started := make(chan struct{}, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sh := i % shards
				for n := 1; ; n++ {
					if n == 2 {
						started <- struct{}{}
					}
					mu[sh].Lock()
					seq[sh]++
					c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(n), Val: "v"}})
					mu[sh].Unlock()
					if errs[i] = c.Wait(); errs[i] != nil {
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
}
