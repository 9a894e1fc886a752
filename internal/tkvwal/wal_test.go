package tkvwal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// replayKV replays recovered records into a map, the way the store's
// recovery apply does: last write per key wins, tombstones delete.
type replayKV struct {
	m map[uint64]string
}

func newReplayKV() *replayKV { return &replayKV{m: make(map[uint64]string)} }

func (r *replayKV) apply(rec *tkvlog.Record) error {
	for _, e := range rec.Entries {
		if e.Del {
			delete(r.m, e.Key)
		} else {
			r.m[e.Key] = e.Val
		}
	}
	return nil
}

func noApply(*tkvlog.Record) error { return nil }

func openLog(t *testing.T, dir string, shards int, apply func(*tkvlog.Record) error) *WAL {
	t.Helper()
	w, err := Open(Options{Dir: dir, Shards: shards}, apply)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// eachShape runs f on a log of one shard and on one of n. It is one lane
// either way; only the second interleaves shards in a segment and shares
// a group, a fence and a checkpoint among them, and only the first puts
// every writer on one shard's buffer, as a single-shard store does.
func eachShape(t *testing.T, n int, f func(t *testing.T, shards int)) {
	for _, shards := range []int{1, n} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { f(t, shards) })
	}
}

// EachShape lends eachShape to the package's external tests.
var EachShape = eachShape

// checkRecovered compares what a reopened log replayed, and the
// watermarks it resumes from, with the expected fold.
func checkRecovered(t *testing.T, label string, w *WAL, kv *replayKV, want map[uint64]string, last []uint64) {
	t.Helper()
	if len(kv.m) != len(want) {
		t.Fatalf("%s: recovered %d keys, want %d", label, len(kv.m), len(want))
	}
	for k, v := range want {
		if kv.m[k] != v {
			t.Fatalf("%s: key %d got %q want %q", label, k, kv.m[k], v)
		}
	}
	for sh, seq := range last {
		if got := w.LastSeq(sh); got != seq {
			t.Fatalf("%s: shard %d recovered seq %d want %d", label, sh, got, seq)
		}
	}
}

// listFiles returns the directory's names that parse under format
// (segFmt or ckptFmt), in rotation order.
func listFiles(t *testing.T, dir, format string) []string {
	t.Helper()
	names, err := OSFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if _, ok := parseFile(format, name); ok {
			out = append(out, name)
		}
	}
	return out
}

// TestAppendRecoverRoundTrip appends and deletes over the shards, and a
// reopen replays exactly that, every shard from the one interleaved
// segment.
func TestAppendRecoverRoundTrip(t *testing.T) { eachShape(t, 4, testAppendRecoverRoundTrip) }

func testAppendRecoverRoundTrip(t *testing.T, shards int) {
	dir := t.TempDir()
	w := openLog(t, dir, shards, noApply)
	seq := make([]uint64, shards)
	want := map[uint64]string{}
	for i := 0; i < 100; i++ {
		sh := i % shards
		seq[sh]++
		val := fmt.Sprintf("v%d", i)
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Val: val}}).Wait(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[uint64(i)] = val
	}
	// Delete a few through the log too.
	for i := 0; i < 12; i++ {
		sh := i % shards
		seq[sh]++
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Del: true}}).Wait(); err != nil {
			t.Fatal(err)
		}
		delete(want, uint64(i))
	}
	st := w.Stats()
	if st.Appends != 112 {
		t.Fatalf("appends %d", st.Appends)
	}
	if st.BytesAppended == 0 || st.PendingPeakBytes == 0 {
		t.Fatalf("byte accounting missing: %+v", st)
	}
	for sh := 0; sh < shards; sh++ {
		if st.Shards[sh].Durable != seq[sh] {
			t.Fatalf("shard %d durable %d want %d", sh, st.Shards[sh].Durable, seq[sh])
		}
	}
	// One segment carries every shard.
	if segs := listFiles(t, dir, segFmt); len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openLog(t, dir, shards, kv.apply)
	defer w2.Close()
	checkRecovered(t, "reopen", w2, kv, want, seq)
	if rs := w2.Stats().Recovery; rs.Replayed != 112 || rs.TruncatedBytes != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
}

// TestGroupCommit proves acks park on a committing batch: everything
// appended while one fsync is in flight rides the next one, together.
// The first group's fsync is held (gateFS) while seven more records are
// staged, so the shape is exact: two fsyncs for eight appends, the
// second covering seven, from however many shards they were dealt over.
func TestGroupCommit(t *testing.T) { eachShape(t, 4, testGroupCommit) }

func testGroupCommit(t *testing.T, shards int) {
	w, g := openGated(t, shards)
	t.Cleanup(func() { closeGated(w, g) })
	seq := make([]uint64, shards)
	seq[0] = 1
	first := w.Append(0, 1, []tkvlog.Entry{{Key: 0, Val: "x"}})
	g.next(t)
	var rest []*Commit
	for i := 1; i < 8; i++ {
		sh := i % shards
		seq[sh]++
		rest = append(rest, w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Val: "x"}}))
	}
	g.finish(nil)
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := g.next(t); got != 7 {
		t.Fatalf("second group: %d records, want the 7 staged behind the first fsync", got)
	}
	select {
	case <-rest[0].done:
		t.Fatal("acked before its group's fsync returned")
	default:
	}
	g.finish(nil)
	for _, c := range rest {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Appends != 8 || st.Fsyncs != 2 || st.GroupMax != 7 {
		t.Fatalf("appends %d fsyncs %d group max %d, want 8, 2, 7", st.Appends, st.Fsyncs, st.GroupMax)
	}
}

// TestCheckpointTruncatesLog drives the checkpoint: after it only the
// fresh segment and the newest checkpoint remain, recovery restores every
// shard from the checkpoint with nothing to replay, and a checkpoint with
// nothing appended since is a no-op unless forced.
func TestCheckpointTruncatesLog(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	w := openLog(t, dir, shards, noApply)
	model := make([]map[uint64]string, shards)
	for sh := range model {
		model[sh] = map[uint64]string{}
	}
	seq := make([]uint64, shards)
	put := func(k uint64, v string) {
		sh := int(k % uint64(shards))
		seq[sh]++
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: k, Val: v}}).Wait(); err != nil {
			t.Fatal(err)
		}
		model[sh][k] = v
	}
	cut := func(sh int) ([]tkvlog.Entry, uint64, error) {
		entries := make([]tkvlog.Entry, 0, len(model[sh]))
		for k, v := range model[sh] {
			entries = append(entries, tkvlog.Entry{Key: k, Val: v})
		}
		return entries, seq[sh], nil
	}
	checkpoint := func(force bool, wantTotal uint64) {
		t.Helper()
		if err := w.Checkpoint(cut, force); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats().Checkpoints; got != wantTotal {
			t.Fatalf("%d checkpoints ran, want %d", got, wantTotal)
		}
		segs, ckpts := listFiles(t, dir, segFmt), listFiles(t, dir, ckptFmt)
		if len(segs) != 1 || len(ckpts) != 1 {
			t.Fatalf("after checkpoint: segments %v checkpoints %v, want one of each", segs, ckpts)
		}
	}
	for i := uint64(0); i < 60; i++ {
		put(i, fmt.Sprintf("v%d", i))
	}
	checkpoint(false, 1)
	if w.Stats().CheckpointAgeSec < 0 {
		t.Fatal("no checkpoint age after a checkpoint")
	}
	for i := uint64(100); i < 120; i++ {
		put(i, "tail")
	}
	checkpoint(false, 2)
	checkpoint(false, 2) // nothing appended: a no-op
	checkpoint(true, 3)  // unless forced
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openLog(t, dir, shards, kv.apply)
	defer w2.Close()
	rs := w2.Stats().Recovery
	if rs.CheckpointEntries != 80 || rs.Replayed != 0 {
		t.Fatalf("want 80 entries from the checkpoint and a log truncated up to it: %+v", rs)
	}
	want := map[uint64]string{}
	for _, m := range model {
		for k, v := range m {
			want[k] = v
		}
	}
	checkRecovered(t, "reopen", w2, kv, want, seq)
}

// TestDirectoryFormat pins the bytes a fresh directory holds, so a
// directory moves between builds of this format in either direction: the
// MANIFEST exactly, and after a checkpoint exactly one segment and one
// checkpoint under the lane-0000 names.
func TestDirectoryFormat(t *testing.T) {
	dir := t.TempDir()
	w := openLog(t, dir, 4, noApply)
	defer w.Close()
	pin, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"version":2,"shards":4,"lane":"shared"}` + "\n"; string(pin) != want {
		t.Fatalf("MANIFEST %q, want %q", pin, want)
	}
	for sh := 0; sh < 4; sh++ {
		if err := w.Append(sh, 1, []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	err = w.Checkpoint(func(sh int) ([]tkvlog.Entry, uint64, error) {
		return []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}, 1, nil
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	names, err := OSFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{manifestName, "lane-0000-0000000000000002.log", "lckpt-0000-0000000000000002.ckpt"}
	if !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
}

// TestCheckpointTakesTheCutSeq: a checkpoint leaves a shard's watermark at
// its cut's seq, even a lower one — a store restored to an older cut appends
// nothing, and the log must not keep numbering past it (an idle checkpoint
// would find the shard dirty forever) — but never lowers a watermark an
// append has raised since the cut began. With more than one shard, the
// append races shard 0's cut alone; the others take the cut's seq, or
// the idle checkpoints would find them dirty.
func TestCheckpointTakesTheCutSeq(t *testing.T) { eachShape(t, 4, testCheckpointTakesTheCutSeq) }

func testCheckpointTakesTheCutSeq(t *testing.T, shards int) {
	w := openLog(t, t.TempDir(), shards, noApply)
	defer w.Close()
	for seq := uint64(1); seq <= 20; seq++ {
		if err := w.Append(0, seq, []tkvlog.Entry{{Key: seq, Val: "x"}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func(cut func(int) ([]tkvlog.Entry, uint64, error), force bool) {
		t.Helper()
		if err := w.Checkpoint(cut, force); err != nil {
			t.Fatal(err)
		}
	}
	restored := func(int) ([]tkvlog.Entry, uint64, error) {
		return []tkvlog.Entry{{Key: 1, Val: "cut"}}, 3, nil
	}
	checkpoint(restored, true)
	if got := w.LastSeq(0); got != 3 {
		t.Fatalf("watermark %d after a restore cut at 3", got)
	}
	checkpoint(restored, false)
	if got := w.Stats().Checkpoints; got != 1 {
		t.Fatalf("%d checkpoints, want the idle one to be a no-op", got)
	}

	var late *Commit
	raced := func(sh int) ([]tkvlog.Entry, uint64, error) {
		if sh == 0 {
			late = w.Append(0, 4, []tkvlog.Entry{{Key: 4, Val: "late"}}) // lands after the cut's seq was read
		}
		return []tkvlog.Entry{{Key: 1, Val: "cut"}}, 3, nil
	}
	checkpoint(raced, true)
	if err := late.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.LastSeq(0); got != 4 {
		t.Fatalf("watermark %d, want the append that raced the checkpoint (4)", got)
	}
	checkpoint(restored, false)
	if got := w.Stats().Checkpoints; got != 3 {
		t.Fatalf("%d checkpoints, want the shard dirty after the raced append", got)
	}
}

// The MANIFEST pins the shard count, both ways.
func TestManifestPinsShards(t *testing.T) {
	dir := t.TempDir()
	if err := openLog(t, dir, 4, noApply).Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{8, 2} {
		_, err := Open(Options{Dir: dir, Shards: shards}, noApply)
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Fatalf("%d shards over a 4-shard directory accepted: %v", shards, err)
		}
	}
}

// failManifestFS fails the next read-only open of the MANIFEST, once.
type failManifestFS struct {
	OSFS
	armed atomic.Bool
}

func (f *failManifestFS) Open(name string) (File, error) {
	if filepath.Base(name) == manifestName && f.armed.CompareAndSwap(true, false) {
		return nil, errors.New("injected EIO")
	}
	return f.OSFS.Open(name)
}

// TestManifestRefusals: a MANIFEST that cannot be read, is version 1,
// carries an unknown version, or records a layout other than the one lane
// (a per-shard one, written by name or as a missing lane field) refuses
// Open with the cause named and is left untouched — one failed read must
// not let other options re-pin the directory. An Options.Mode naming
// another layout refuses too. Only a MANIFEST that does not exist is
// created.
func TestManifestRefusals(t *testing.T) {
	dir := t.TempDir()
	if err := openLog(t, dir, 8, noApply).Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName)
	pin, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refuses := func(opts Options, cause, body string) {
		t.Helper()
		opts.Dir = dir
		if _, err := Open(opts, noApply); err == nil || !strings.Contains(err.Error(), cause) {
			t.Fatalf("Open = %v, want a refusal naming %q", err, cause)
		}
		if got, _ := os.ReadFile(path); string(got) != body {
			t.Fatalf("the refused open rewrote the manifest: %s -> %s", body, got)
		}
	}
	fs := &failManifestFS{}
	fs.armed.Store(true)
	refuses(Options{Shards: 4, FS: fs}, "manifest unreadable", string(pin))
	perShard := "per" + "shard" // spelled in two pieces so the retired name stays out of the tree
	refuses(Options{Shards: 8, Mode: Mode(perShard)}, fmt.Sprintf("unknown layout %q", perShard), string(pin))
	for _, row := range []struct{ body, cause string }{
		{`{"version":1,"shards":8,"lane":"shared"}`, "manifest version 1"},
		{`{"version":7,"shards":8,"lane":"shared"}`, "manifest version 7"},
		{`{"version":2,"shards":8,"lane":"` + perShard + `"}`, fmt.Sprintf("WAL layout %q", perShard)},
		{`{"version":2,"shards":8}`, "WAL layout \"one lane per shard (no lane field)\""},
	} {
		if err := os.WriteFile(path, []byte(row.body), 0o644); err != nil {
			t.Fatal(err)
		}
		refuses(Options{Shards: 8}, row.cause, row.body)
	}
	if err := os.WriteFile(path, pin, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := openLog(t, dir, 8, noApply).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestNotCreatedOverALog: a directory that holds a segment or a
// checkpoint but no MANIFEST refuses Open at any shard count and is left
// without one, since its sharding is unknown; re-pinning it would let a
// store with another shard count replay its records. Stale .tmp files do
// not count: a directory holding only those is new.
func TestManifestNotCreatedOverALog(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			w := openLog(t, dir, 4, noApply)
			for sh := range 4 {
				if err := w.Append(sh, 1, []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if checkpoint {
				cut := func(sh int) ([]tkvlog.Entry, uint64, error) {
					return []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}, 1, nil
				}
				if err := w.Checkpoint(cut, false); err != nil {
					t.Fatal(err)
				}
				// Only the checkpoint is left to give the log away.
				os.Remove(filepath.Join(dir, segName(1)))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, manifestName)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{4, 8} {
				_, err := Open(Options{Dir: dir, Shards: shards}, noApply)
				if err == nil || !strings.Contains(err.Error(), "but no MANIFEST (refusing to start)") {
					t.Fatalf("%d shards over a log without a MANIFEST: Open = %v, want a refusal", shards, err)
				}
				if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("the refused open pinned the directory: %v", err)
				}
			}
		})
	}
	dir := t.TempDir()
	for _, stale := range []string{manifestName + ".tmp", ckptName(3) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stale), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := openLog(t, dir, 8, noApply).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("a directory of stale .tmp files got no MANIFEST: %v", err)
	}
}

func TestAppendAfterCloseIsFenced(t *testing.T) {
	w := openLog(t, t.TempDir(), 1, noApply)
	if err := w.Append(0, 1, []tkvlog.Entry{{Key: 1, Val: "v"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := w.Append(0, 2, []tkvlog.Entry{{Key: 2, Val: "v"}})
	if c == nil {
		t.Fatal("append after close returned a nil Commit, which waits for nothing")
	}
	if err := c.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// TestNoSyncMode: async appends hand back nothing to park on and never
// fsync, and a clean Close still leaves every shard's records on disk.
func TestNoSyncMode(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Shards: shards, NoSync: true}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]uint64, shards)
	for i := uint64(1); i <= 10; i++ {
		sh := int(i % uint64(shards))
		seq[sh]++
		if c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: i, Val: "v"}}); c != nil {
			t.Fatalf("async append %d returned a handle to park on", i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != 0 {
		t.Fatalf("async mode fsynced %d times", got)
	}
	kv := newReplayKV()
	w2 := openLog(t, dir, shards, kv.apply)
	defer w2.Close()
	if len(kv.m) != 10 {
		t.Fatalf("clean close in async mode lost records: %d of 10", len(kv.m))
	}
}

// BenchmarkWalAppend is the hot-path allocation gate: staging a record
// runs inside the write paths' commits and must stay at 0
// allocs/op, though the durability ticket is shared by every shard. CI
// greps its line for " 0 allocs/op".
func BenchmarkWalAppend(b *testing.B) {
	w, err := Open(Options{Dir: b.TempDir(), Shards: 4, NoSync: true}, noApply)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	entries := []tkvlog.Entry{{Key: 1, Val: "value-one"}, {Key: 2, Val: "value-two"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(i&3, uint64(i+1), entries)
	}
}
