package tkv

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwal/errfs"
)

// openWALStore opens a store of the given shards with a WAL in dir (no
// repl).
func openWALStore(t *testing.T, dir string, shards int, wopts tkvwal.Options) *Store {
	t.Helper()
	wopts.Dir = dir
	st, err := Open(Config{Shards: shards, WAL: &wopts})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// eachShape runs f on a store of one shard and on one of n: the log is one
// lane either way, owning a single shard's records or interleaving n.
func eachShape(t *testing.T, n int, f func(t *testing.T, shards int)) {
	for _, shards := range []int{1, n} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { f(t, shards) })
	}
}

// TestWALDurableRoundTrip writes through every mutating path, closes,
// reopens the directory and expects the exact same contents.
func TestWALDurableRoundTrip(t *testing.T) { eachShape(t, 4, testWALDurableRoundTrip) }

func testWALDurableRoundTrip(t *testing.T, shards int) {
	dir := t.TempDir()
	st := openWALStore(t, dir, shards, tkvwal.Options{})
	for k := uint64(0); k < 40; k++ {
		if _, err := st.Put(k, fmt.Sprintf("v%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 40; k += 4 {
		if _, err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Add(1000, 7); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.CAS(1, "v1", "swapped"); err != nil || !ok {
		t.Fatalf("cas: %v %v", ok, err)
	}
	if _, err := st.Batch([]Op{
		{Kind: OpPut, Key: 2000, Value: "batched"},
		{Kind: OpDelete, Key: 2},
		{Kind: OpAdd, Key: 1000, Delta: 3},
	}); err != nil {
		t.Fatal(err)
	}
	want, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openWALStore(t, dir, shards, tkvwal.Options{})
	defer st2.Close()
	got, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: recovered %q, want %q", k, got[k], v)
		}
	}
	ws := st2.Stats().Wal
	if ws == nil || ws.Recovery.Replayed == 0 {
		t.Fatalf("recovery stats missing or empty: %+v", ws)
	}
}

// TestWALCheckpointTruncates drives the store-level checkpoint: after
// CheckpointAll, a reopen restores from the snapshots (replaying little
// or nothing) and still agrees with the pre-close contents.
func TestWALCheckpointTruncates(t *testing.T) { eachShape(t, 4, testWALCheckpointTruncates) }

func testWALCheckpointTruncates(t *testing.T, shards int) {
	dir := t.TempDir()
	st := openWALStore(t, dir, shards, tkvwal.Options{})
	for k := uint64(0); k < 64; k++ {
		if _, err := st.Put(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Wal.Checkpoints; got == 0 {
		t.Fatal("no checkpoint recorded")
	}
	want, _ := st.Snapshot()
	st.Close()

	st2 := openWALStore(t, dir, shards, tkvwal.Options{})
	defer st2.Close()
	ws := st2.Stats().Wal
	if ws.Recovery.CheckpointEntries == 0 {
		t.Fatalf("reopen did not restore from checkpoints: %+v", ws.Recovery)
	}
	if ws.Recovery.Replayed != 0 {
		t.Fatalf("segments should be truncated up to the checkpoints, replayed %d", ws.Recovery.Replayed)
	}
	got, _ := st2.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	}
}

// TestWALRecoveryRefusesMisplacedKeys: a 4-shard directory whose MANIFEST
// was rewritten to 8 shards passes the pin check, but its records carry
// keys that an 8-shard store places on other shards. Open must refuse
// rather than apply them where no lookup finds them, whether the first such
// record is read from the checkpoint or from the segment after it.
func TestWALRecoveryRefusesMisplacedKeys(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			st := openWALStore(t, dir, 4, tkvwal.Options{})
			for k := uint64(0); k < 128; k++ {
				if _, err := st.Put(k, "v"); err != nil {
					t.Fatal(err)
				}
				if k == 63 && checkpoint {
					if err := st.CheckpointAll(); err != nil {
						t.Fatal(err)
					}
				}
			}
			st.Close()
			pin := `{"version":2,"shards":8,"lane":"shared"}` + "\n"
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(pin), 0o644); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(Config{Shards: 8, WAL: &tkvwal.Options{Dir: dir}})
			if err == nil {
				n, _ := st2.Len()
				st2.Close()
				t.Fatalf("8 shards over a 4-shard log opened, Len %d", n)
			}
			if !strings.Contains(err.Error(), "(shard counts differ?)") {
				t.Fatalf("Open = %v, want the misplaced key named", err)
			}
		})
	}
}

// TestWALReplSharedSequence checks the one-numbering invariant: with
// both logs attached, the head and the WAL watermark agree per shard, and a
// reopen continues the numbering where the durable log ended, with a window
// that holds nothing from before the reopen.
func TestWALReplSharedSequence(t *testing.T) { eachShape(t, 4, testWALReplSharedSequence) }

func testWALReplSharedSequence(t *testing.T, shards int) {
	dir := t.TempDir()
	cfg := Config{Shards: shards, ReplRing: 64, WAL: &tkvwal.Options{Dir: dir}}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 32; k++ {
		if _, err := st.Put(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	heads := make([]uint64, st.NumShards())
	for i := range heads {
		heads[i] = st.Repl().Head(i)
		if got := st.WAL().LastSeq(i); got != heads[i] {
			t.Fatalf("shard %d: ring head %d, wal watermark %d", i, heads[i], got)
		}
	}
	st.Close()

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i := range heads {
		if got := st2.Repl().Head(i); got != heads[i] {
			t.Fatalf("shard %d: ring restarted at %d, want %d", i, got, heads[i])
		}
		restartedAt(t, st2.Repl(), i, heads[i])
	}
	// The next write on each shard must extend the numbering, not fork it.
	if _, err := st2.Put(5, "w"); err != nil {
		t.Fatal(err)
	}
	sh := st2.ShardOf(5)
	if got := st2.Repl().Head(sh); got != heads[sh]+1 {
		t.Fatalf("shard %d: head %d after one write, want %d", sh, got, heads[sh]+1)
	}
	if got := st2.WAL().LastSeq(sh); got != heads[sh]+1 {
		t.Fatalf("shard %d: wal watermark %d after one write, want %d", sh, got, heads[sh]+1)
	}
	if recs, ok := readWindow(t, st2.Repl(), sh, heads[sh]+1, 64); !ok || len(recs) != 1 {
		t.Fatalf("shard %d: ReadFrom(%d) = %d records ok=%v, want the one write", sh, heads[sh]+1, len(recs), ok)
	}
}

// TestWALReplRestoreLowerSeq restores a follower whose WAL is at 20 to a
// cut at 3. The WAL's watermark must follow the store's head down (or every
// idle checkpoint after it would find the shard dirty and rewrite it), the
// follower must go on applying from 4, and a reopen must recover the cut
// plus that record.
func TestWALReplRestoreLowerSeq(t *testing.T) { eachShape(t, 2, testWALReplRestoreLowerSeq) }

func testWALReplRestoreLowerSeq(t *testing.T, shards int) {
	const sh = 0
	cfg := Config{Shards: shards, ReplRing: 64, WAL: &tkvwal.Options{Dir: t.TempDir()}}
	fo, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fo.SetReadOnly(true)
	keys := shardKeys(fo, sh, 20, 0)
	apply := func(seq uint64, key uint64, val string) {
		t.Helper()
		rec := &tkvlog.Record{Shard: sh, Seq: seq, Entries: []tkvlog.Entry{{Key: key, Val: val}}}
		if err := fo.ReplApply(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		apply(uint64(i+1), k, "old")
	}
	if got := fo.WAL().LastSeq(sh); got != 20 {
		t.Fatalf("wal watermark %d after 20 records", got)
	}
	if err := fo.ReplRestoreShard(sh, []tkvlog.Entry{{Key: keys[0], Val: "cut"}}, 3); err != nil {
		t.Fatal(err)
	}
	if h, w := fo.Repl().Head(sh), fo.WAL().LastSeq(sh); h != 3 || w != 3 {
		t.Fatalf("after a restore to 3: head %d, wal watermark %d", h, w)
	}
	before := fo.Stats().Wal.Checkpoints
	for i := 0; i < 2; i++ {
		if err := fo.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := fo.Stats().Wal.Checkpoints - before; n != 0 {
		t.Fatalf("two idle CheckpointAll calls took %d checkpoints, want 0", n)
	}
	apply(4, keys[1], "new")
	fo.Close()

	fo2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fo2.Close()
	if h, w := fo2.Repl().Head(sh), fo2.WAL().LastSeq(sh); h != 4 || w != 4 {
		t.Fatalf("reopened: head %d, wal watermark %d, want 4", h, w)
	}
	got, err := fo2.Snapshot()
	if want := map[uint64]string{keys[0]: "cut", keys[1]: "new"}; err != nil || !maps.Equal(got, want) {
		t.Fatalf("reopened contents %v (err %v), want %v", got, err, want)
	}
}

// TestWALReplRestore drives snapshot resync on a follower that carries
// a WAL: the restore must land durably (one forced checkpoint of every
// shard after the restore has left the restored shard's gate), so a reopen of
// the follower recovers the restored state and continues the numbering at
// the cut.
func TestWALReplRestore(t *testing.T) { eachShape(t, 4, testWALReplRestore) }

func testWALReplRestore(t *testing.T, shards int) {
	st, err := Open(Config{Shards: shards, ReplRing: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := uint64(0); k < 48; k++ {
		if _, err := st.Put(k, fmt.Sprintf("v%d", k)); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	foCfg := Config{Shards: shards, ReplRing: 64, WAL: &tkvwal.Options{Dir: dir}}
	fo, err := Open(foCfg)
	if err != nil {
		t.Fatal(err)
	}
	fo.SetReadOnly(true)
	seqs := make([]uint64, shards)
	for sh := 0; sh < shards; sh++ {
		pairs, seq, err := st.ReplShardCut(sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := fo.ReplRestoreShard(sh, pairs, seq); err != nil {
			t.Fatal(err)
		}
		seqs[sh] = seq
	}
	want, _ := st.Snapshot()
	fo.Close()

	fo2, err := Open(foCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fo2.Close()
	got, _ := fo2.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("reopened follower has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: %q, want %q", k, got[k], v)
		}
	}
	for sh := 0; sh < shards; sh++ {
		if h := fo2.WAL().LastSeq(sh); h != seqs[sh] {
			t.Fatalf("shard %d: reopened watermark %d, want cut seq %d", sh, h, seqs[sh])
		}
		if h := fo2.Repl().Head(sh); h != seqs[sh] {
			t.Fatalf("shard %d: reopened ring head %d, want cut seq %d", sh, h, seqs[sh])
		}
	}
}

// TestWALFailStopStore proves the store-level fail-stop: an injected
// fsync error surfaces as the write's error (never an ack), WalFailed
// fires, and every later write reports the fence.
func TestWALFailStopStore(t *testing.T) { eachShape(t, 4, testWALFailStopStore) }

func testWALFailStopStore(t *testing.T, shards int) {
	errInjected := errors.New("injected disk fault")
	fs := errfs.New(tkvwal.OSFS{}, errInjected)
	st := openWALStore(t, t.TempDir(), shards, tkvwal.Options{FS: fs})
	defer st.Close()
	if _, err := st.Put(1, "healthy"); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncAt(1)
	if _, err := st.Put(2, "doomed"); !errors.Is(err, errInjected) {
		t.Fatalf("put after armed fault: %v, want the injected error", err)
	}
	select {
	case <-st.WalFailed():
	case <-time.After(2 * time.Second):
		t.Fatal("WalFailed did not fire")
	}
	if !errors.Is(st.WalErr(), errInjected) {
		t.Fatalf("WalErr = %v", st.WalErr())
	}
	if _, err := st.Put(3, "late"); !errors.Is(err, errInjected) {
		t.Fatalf("post-fence put: %v", err)
	}
	if _, err := st.Batch([]Op{{Kind: OpPut, Key: 4, Value: "late"}}); !errors.Is(err, errInjected) {
		t.Fatalf("post-fence batch: %v", err)
	}
}

// TestWALCrashDrill is the in-process kill -9 stand-in against a real
// Store: concurrent writers tally exactly which writes were
// acknowledged, the WAL is abandoned mid-flight (un-fsynced buffers
// dropped, as SIGKILL would drop them), and a fresh Store over the same
// directory must contain every acknowledged write. Un-acked writes may
// or may not survive; acked ones must.
func TestWALCrashDrill(t *testing.T) { eachShape(t, 4, testWALCrashDrill) }

func testWALCrashDrill(t *testing.T, shards int) {
	dir := t.TempDir()
	st := openWALStore(t, dir, shards, tkvwal.Options{})

	const workers = 4
	const crashAfter = 256           // acks the writers hold when the drill crashes the log
	acked := make([]uint64, workers) // per worker: writes 1..acked[w] were acked
	var wg sync.WaitGroup
	var total atomic.Uint64
	held := make(chan struct{}) // closed at the crashAfter-th ack
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := uint64(1); ; i++ {
				if _, err := st.Put(base+i, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					return // fence reached: the "crash" happened
				}
				acked[w] = i
				if total.Add(1) == crashAfter {
					close(held)
				}
			}
		}(w)
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-held:
	case <-exited:
		t.Fatalf("the writers stopped after %d acks, before the crash", total.Load())
	}
	st.WAL().Abandon() // with crashAfter acks and more writes in flight
	<-exited
	st.Close()

	st2 := openWALStore(t, dir, shards, tkvwal.Options{})
	defer st2.Close()
	lost := 0
	for w := 0; w < workers; w++ {
		base := uint64(w) << 32
		for i := uint64(1); i <= acked[w]; i++ {
			want := fmt.Sprintf("w%d-%d", w, i)
			got, ok, err := st2.Get(base + i)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || got != want {
				lost++
				t.Errorf("acked write w%d-%d lost (got %q, ok=%v)", w, i, got, ok)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged writes lost", lost, total.Load())
	}
	t.Logf("crash drill: %d acknowledged writes, all recovered", total.Load())
}

// BenchmarkWalPut is the durability A/B on the store-level put path:
// no log, sync WAL, async WAL, and sync WAL sharing sequence numbers
// with a replication ring. It runs parallel because that is what group
// commit is for — a serial caller pays a whole fsync per put, while P
// concurrent callers park on the same committing batch and amortize
// it; compare -cpu 1 against -cpu 8 to see the overlap directly (the
// per-op group size and fsync percentiles land in Stats().Wal).
func BenchmarkWalPut(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		wal    bool
		nosync bool
		ring   int
	}{
		{"wal=off", false, false, 0},
		{"wal=sync", true, false, 0},
		{"wal=async", true, true, 0},
		{"wal=sync+ring", true, false, 1024},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			c := Config{Shards: 4, PoolSize: 2, Buckets: 128, ReplRing: cfg.ring}
			if cfg.wal {
				c.WAL = &tkvwal.Options{Dir: b.TempDir(), NoSync: cfg.nosync}
			}
			st, err := Open(c)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for k := uint64(0); k < 256; k++ {
				if _, err := st.Put(k, "seed-value"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var i uint64
				for pb.Next() {
					i++
					if _, err := st.Put(i&255, "updated-value"); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
