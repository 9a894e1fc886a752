package tkvwal_test

import (
	"errors"
	"sync"
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
func recoveredKeys(t *testing.T, dir string, mode tkvwal.Mode, shards int) map[uint64]bool {
	t.Helper()
	got := map[uint64]bool{}
	w, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: shards, Mode: mode}, func(rec *tkvlog.Record) error {
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

// proveFailStop drives a two-shard WAL into an injected fault and checks
// the whole fail-stop contract: the faulted append is never acked, the
// log fences, Failed() fires, later appends bounce — on EVERY shard, not
// just the one whose append drew the short straw: the fence belongs to
// the log, so one lane's fault stops the whole store whether the other
// shard shares that lane's file and fsync or has its own — and a reopen
// of the directory recovers every acked record.
func proveFailStop(t *testing.T, mode tkvwal.Mode, arm func(*errfs.FS)) {
	t.Helper()
	dir := t.TempDir()
	fs := errfs.New(tkvwal.OSFS{}, errInjected)
	w, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: 2, Mode: mode, FS: fs}, noApply)
	if err != nil {
		t.Fatal(err)
	}

	acked := map[uint64]bool{} // key = shard<<32 | seq
	var seq [2]uint64
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
		if err := put(i % 2); err != nil {
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
	// Fenced: appends after the failure must report it, not ack — shard 1
	// never touched the fault, and bounces all the same.
	for sh := 0; sh < 2; sh++ {
		if err := put(sh); !errors.Is(err, errInjected) {
			t.Fatalf("shard %d append after the fault: %v (want the injected fault)", sh, err)
		}
	}
	w.Close()

	// Every acked record must be there. The faulted record may or may not
	// be on disk — it was never acked, so either is honest.
	got := recoveredKeys(t, dir, mode, 2)
	for key := range acked {
		if !got[key] {
			t.Fatalf("acked record %x lost after fault+recovery", key)
		}
	}
}

func failSync(n int64) func(*errfs.FS)  { return func(fs *errfs.FS) { fs.FailSyncAt(n) } }
func failWrite(n int64) func(*errfs.FS) { return func(fs *errfs.FS) { fs.FailWriteAt(n) } }

func TestFailStopOnFsyncError(t *testing.T)     { proveFailStop(t, tkvwal.ModePerShard, failSync(1)) }
func TestFailStopOnWriteError(t *testing.T)     { proveFailStop(t, tkvwal.ModePerShard, failWrite(1)) }
func TestLaneFailStopOnFsyncError(t *testing.T) { proveFailStop(t, tkvwal.ModeShared, failSync(1)) }
func TestLaneFailStopOnWriteError(t *testing.T) { proveFailStop(t, tkvwal.ModeShared, failWrite(1)) }

func TestFailStopOnLaterFsync(t *testing.T) {
	for _, mode := range []tkvwal.Mode{tkvwal.ModePerShard, tkvwal.ModeShared} {
		t.Run(string(mode), func(t *testing.T) { proveFailStop(t, mode, failSync(3)) })
	}
}

func TestCheckpointFaultFences(t *testing.T)     { proveCheckpointFaultFences(t, tkvwal.ModePerShard) }
func TestLaneCheckpointFaultFences(t *testing.T) { proveCheckpointFaultFences(t, tkvwal.ModeShared) }

// proveCheckpointFaultFences: a fault while writing a lane's checkpoint
// fences the log instead of being swallowed.
func proveCheckpointFaultFences(t *testing.T, mode tkvwal.Mode) {
	fs := errfs.New(tkvwal.OSFS{}, errInjected)
	w, err := tkvwal.Open(tkvwal.Options{Dir: t.TempDir(), Shards: 2, Mode: mode, FS: fs}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		for sh := 0; sh < 2; sh++ {
			if err := w.Append(sh, seq, []tkvlog.Entry{{Key: uint64(sh)<<32 | seq, Val: "v"}}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs.FailSyncAt(1) // all appends settled, so the next fsync is the ckpt tmp file's
	err = w.Checkpoint(w.LaneOf(1), func(sh int) ([]tkvlog.Entry, uint64, error) {
		return []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}, 3, nil
	}, false)
	if !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint fault: %v", err)
	}
	if w.Err() == nil {
		t.Fatal("checkpoint fault did not fence the log")
	}
}

func TestAbandonSimulatesCrash(t *testing.T) { proveAbandonCrash(t, tkvwal.ModePerShard) }
func TestSharedAbandonCrash(t *testing.T)    { proveAbandonCrash(t, tkvwal.ModeShared) }

// proveAbandonCrash is the in-process crash drill: concurrent appenders
// on every shard tally which records were acknowledged, the log is
// abandoned mid-flight (pending un-fsynced records discarded, as SIGKILL
// would), and recovery must surface every acknowledged record on every
// shard. Lost un-acked records are fine; lost acked records are the bug
// class this exists to catch — an ack racing ahead of its fsync would
// fail here.
func proveAbandonCrash(t *testing.T, mode tkvwal.Mode) {
	const workers = 4
	dir := t.TempDir()
	w, err := tkvwal.Open(tkvwal.Options{Dir: dir, Shards: workers, Mode: mode}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	acked := make([]uint64, workers) // per shard: seqs 1..acked[sh] were acked
	var wg sync.WaitGroup
	for sh := 0; sh < workers; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				c := w.Append(sh, seq, []tkvlog.Entry{{Key: uint64(sh)<<32 | seq, Val: "v"}})
				if err := c.Wait(); err != nil {
					return // fence reached: the "crash" happened
				}
				acked[sh] = seq
			}
		}(sh)
	}
	time.Sleep(50 * time.Millisecond)
	w.Abandon() // SIGKILL stand-in
	wg.Wait()
	var total uint64
	for _, a := range acked {
		total += a
	}
	if total == 0 {
		t.Fatal("no acks before the crash; drill proves nothing")
	}
	got := recoveredKeys(t, dir, mode, workers)
	for sh := 0; sh < workers; sh++ {
		for seq := uint64(1); seq <= acked[sh]; seq++ {
			if !got[uint64(sh)<<32|seq] {
				t.Fatalf("acked shard %d seq %d lost in crash", sh, seq)
			}
		}
	}
	t.Logf("crash drill: %d acked across %d shards, %d recovered", total, workers, len(got))
}
