package tkvwal_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwal/errfs"
)

var errInjected = errors.New("injected disk fault")

func noApply(*tkvlog.Record) error { return nil }

// recoveredKeys reopens dir through the real FS and returns the set of
// keys recovery replayed.
func recoveredKeys(t *testing.T, dir string, shards int) map[uint64]bool {
	t.Helper()
	got := map[uint64]bool{}
	w, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: shards}, func(rec *tkvlog.Record) error {
		for _, e := range rec.Entries {
			got[e.Key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	w.Close()
	return got
}

// proveFailStop drives a WAL into an injected fault and checks the whole
// fail-stop contract: the faulted append is never acked, the log fences,
// Failed() fires, later appends bounce — on EVERY shard, not just the one
// whose append drew the short straw: one fault stops the whole store —
// and a reopen of the directory recovers every acked record.
func proveFailStop(t *testing.T, shards int, arm func(*errfs.FS)) {
	t.Helper()
	dir := t.TempDir()
	fs := errfs.New(tkvwal.OSFS{}, errInjected)
	w, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: shards, FS: fs}, noApply)
	if err != nil {
		t.Fatal(err)
	}

	acked := map[uint64]bool{} // key = shard<<32 | seq
	seq := make([]uint64, shards)
	put := func(sh int) error {
		seq[sh]++
		key := uint64(sh)<<32 | seq[sh]
		err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: key, Val: "v"}}).Wait()
		if err == nil {
			acked[key] = true
		}
		return err
	}
	for i := 0; i < 6; i++ {
		if err := put(i % shards); err != nil {
			t.Fatalf("healthy append %d: %v", i, err)
		}
	}
	arm(fs)
	// Drive shard 0 into the fault: it must surface as a Wait error on
	// some append — never a nil ack.
	faulted := false
	for i := 0; i < 5 && !faulted; i++ {
		if err := put(0); err != nil {
			faulted = true
			if !errors.Is(err, errInjected) {
				t.Fatalf("shard 0 failed with %v, want the injected fault", err)
			}
		}
	}
	if !faulted {
		t.Fatal("injected fault never surfaced")
	}
	select {
	case <-w.Failed():
	case <-time.After(2 * time.Second):
		t.Fatal("Failed() did not fire")
	}
	if !errors.Is(w.Err(), errInjected) || !w.Stats().Failed {
		t.Fatalf("Err() = %v, stats failed = %v", w.Err(), w.Stats().Failed)
	}
	// Fenced: appends after the failure must report it, not ack — the
	// other shards never touched the fault, and bounce all the same.
	for sh := 0; sh < shards; sh++ {
		if err := put(sh); !errors.Is(err, errInjected) {
			t.Fatalf("shard %d append after the fault: %v (want the injected fault)", sh, err)
		}
	}
	w.Close()

	// Every acked record must be there. The faulted record may or may not
	// be on disk — it was never acked, so either is honest.
	got := recoveredKeys(t, dir, shards)
	for key := range acked {
		if !got[key] {
			t.Fatalf("acked record %x lost after fault+recovery", key)
		}
	}
}

func failSync(n int64) func(*errfs.FS)  { return func(fs *errfs.FS) { fs.FailSyncAt(n) } }
func failWrite(n int64) func(*errfs.FS) { return func(fs *errfs.FS) { fs.FailWriteAt(n) } }

func TestFailStopOnFsyncError(t *testing.T) {
	tkvwal.EachShape(t, 2, func(t *testing.T, shards int) { proveFailStop(t, shards, failSync(1)) })
}

func TestFailStopOnWriteError(t *testing.T) {
	tkvwal.EachShape(t, 2, func(t *testing.T, shards int) { proveFailStop(t, shards, failWrite(1)) })
}

func TestFailStopOnLaterFsync(t *testing.T) {
	tkvwal.EachShape(t, 2, func(t *testing.T, shards int) { proveFailStop(t, shards, failSync(3)) })
}

// TestCheckpointFaultFences: a fault while writing the checkpoint fences
// the log instead of being swallowed.
func TestCheckpointFaultFences(t *testing.T) { tkvwal.EachShape(t, 2, testCheckpointFaultFences) }

func testCheckpointFaultFences(t *testing.T, shards int) {
	fs := errfs.New(tkvwal.OSFS{}, errInjected)
	w, err := tkvwal.Open(tkvwal.Options{Dir: t.TempDir(), Shards: shards, FS: fs}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		for sh := 0; sh < shards; sh++ {
			if err := w.Append(sh, seq, []tkvlog.Entry{{Key: uint64(sh)<<32 | seq, Val: "v"}}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs.FailSyncAt(1) // all appends settled, so the next fsync is the ckpt tmp file's
	err = w.Checkpoint(func(sh int) ([]tkvlog.Entry, uint64, error) {
		return []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}, 3, nil
	}, false)
	if !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint fault: %v", err)
	}
	if w.Err() == nil {
		t.Fatal("checkpoint fault did not fence the log")
	}
}

// TestAbandonSimulatesCrash is the in-process crash drill: concurrent
// appenders — one on each shard, or all on one — tally which records were
// acknowledged, the log is abandoned mid-flight (pending un-fsynced
// records discarded, as SIGKILL would), and recovery must surface every
// acknowledged record of every appender. Lost un-acked records are fine;
// lost acked records are the bug class this exists to catch — an ack
// racing ahead of its fsync would fail here.
func TestAbandonSimulatesCrash(t *testing.T) {
	const workers = 4
	tkvwal.EachShape(t, workers, func(t *testing.T, shards int) { proveAbandonCrash(t, workers, shards) })
}

// crashAfter is how many acks the appenders hold when the drill crashes
// the log.
const crashAfter = 256

func proveAbandonCrash(t *testing.T, workers, shards int) {
	dir := t.TempDir()
	w, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: shards}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	acked := make([]uint64, workers) // per appender: records 1..acked[i] were acked
	mu := make([]sync.Mutex, shards) // shard i's ordering lock, the one Append asks for: assigns seq[i]
	seq := make([]uint64, shards)
	var wg sync.WaitGroup
	var total atomic.Uint64
	held := make(chan struct{}) // closed at the crashAfter-th ack
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := i % shards
			for n := uint64(1); ; n++ {
				mu[sh].Lock()
				seq[sh]++
				c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i)<<32 | n, Val: "v"}})
				mu[sh].Unlock()
				if err := c.Wait(); err != nil {
					return // fence reached: the "crash" happened
				}
				acked[i] = n
				if total.Add(1) == crashAfter {
					close(held)
				}
			}
		}(i)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-held:
	case <-exited:
		t.Fatalf("the appenders stopped after %d acks, before the crash", total.Load())
	}
	w.Abandon() // SIGKILL stand-in, with crashAfter acks and more in flight
	<-exited
	got := recoveredKeys(t, dir, shards)
	for i := 0; i < workers; i++ {
		for n := uint64(1); n <= acked[i]; n++ {
			if !got[uint64(i)<<32|n] {
				t.Fatalf("appender %d's acked record %d lost in crash", i, n)
			}
		}
	}
	t.Logf("crash drill: %d acked across %d shards, %d recovered", total.Load(), shards, len(got))
}
