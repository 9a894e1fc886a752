package tkvwal

// The lane's tests that need no clock: a lone writer's groups and the
// fence's publication order, driven through gateFS. The group-formation
// tests, whose outcome turns on the lane's fallback timer, run in a bubble
// (lanegroup_synctest_test.go).

import (
	"errors"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// TestLaneLoneWriterNeverWaits: a serial writer's own record is the
// whole expectation, so every Append is collected at once — the lane
// never blocks for arrivals and never arms the fallback timer.
func TestLaneLoneWriterNeverWaits(t *testing.T) { eachShape(t, 4, testLoneWriterNeverWaits) }

func testLoneWriterNeverWaits(t *testing.T, shards int) {
	w, g := openGated(t, shards)
	t.Cleanup(func() { closeGated(w, g) })
	seq := make([]uint64, shards)
	for i := 0; i < 20; i++ {
		sh := i % shards
		seq[sh]++
		c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Val: "x"}})
		if got := g.next(t); got != 1 {
			t.Fatalf("append %d: group of %d", i, got)
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

// TestFenceIsOnePublication parks an appender inside fail, between its
// two publications: the fence is stored, failedc is not yet closed. The
// appender must already get a handle that fails. (When the flag and the
// handle were two stores in the other order, Append returned a nil
// *Commit here, and a nil Commit's Wait is an ack.)
func TestFenceIsOnePublication(t *testing.T) { eachShape(t, 2, testFenceIsOnePublication) }

func testFenceIsOnePublication(t *testing.T, shards int) {
	w, g := openGated(t, shards)
	t.Cleanup(func() { closeGated(w, g) })
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
		w, g := openGated(t, shards)
		t.Cleanup(func() { closeGated(w, g) })
		g.open() // real files, free fsyncs: the race is with Abandon, not the device
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
