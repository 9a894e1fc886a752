package tkvwal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

func openMode(t *testing.T, dir string, mode Mode, shards int, apply func(*tkvlog.Record) error) *WAL {
	t.Helper()
	w, err := Open(Options{Dir: dir, Shards: shards, Mode: mode}, apply)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

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
// (segFmt or ckptFmt), in rotation order per lane.
func listFiles(t *testing.T, dir, format string) []string {
	t.Helper()
	names, err := OSFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if _, _, ok := parseLaneFile(format, name); ok {
			out = append(out, name)
		}
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) { proveRoundTrip(t, ModePerShard) }
func TestSharedLaneRoundTrip(t *testing.T)    { proveRoundTrip(t, ModeShared) }

func proveRoundTrip(t *testing.T, mode Mode) {
	const shards = 4
	dir := t.TempDir()
	w := openMode(t, dir, mode, shards, noApply)
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
	if st.Mode != mode || st.Appends != 112 {
		t.Fatalf("mode %q appends %d", st.Mode, st.Appends)
	}
	if st.BytesAppended == 0 || st.PendingPeakBytes == 0 {
		t.Fatalf("byte accounting missing: %+v", st)
	}
	for sh := 0; sh < shards; sh++ {
		if st.Shards[sh].Durable != seq[sh] {
			t.Fatalf("shard %d durable %d want %d", sh, st.Shards[sh].Durable, seq[sh])
		}
	}
	// One segment per lane and nothing else: the layout is the shard sets.
	wantLanes := 1
	if mode == ModePerShard {
		wantLanes = shards
	}
	if n := len(listFiles(t, dir, segFmt)); n != wantLanes || w.Lanes() != wantLanes {
		t.Fatalf("%d segments, %d lanes, want %d of each", n, w.Lanes(), wantLanes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openMode(t, dir, mode, shards, kv.apply)
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
// second covering seven.
func TestGroupCommit(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		w, g := openGated(t, mode, 1)
		first := w.Append(0, 1, []tkvlog.Entry{{Key: 1, Val: "x"}})
		g.next(t)
		var rest []*Commit
		for seq := uint64(2); seq <= 8; seq++ {
			rest = append(rest, w.Append(0, seq, []tkvlog.Entry{{Key: seq, Val: "x"}}))
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
	})
}

func TestCheckpointTruncatesLog(t *testing.T) { proveCheckpointTruncates(t, ModePerShard) }
func TestSharedCheckpointLane(t *testing.T)   { proveCheckpointTruncates(t, ModeShared) }

// proveCheckpointTruncates drives the checkpoint of every lane: after
// it only each lane's fresh segment and newest checkpoint remain,
// recovery restores from the checkpoints with nothing to replay, and a
// checkpoint with nothing appended since is a no-op unless forced.
func proveCheckpointTruncates(t *testing.T, mode Mode) {
	const shards = 2
	dir := t.TempDir()
	w := openMode(t, dir, mode, shards, noApply)
	model := [shards]map[uint64]string{{}, {}}
	seq := make([]uint64, shards)
	put := func(k uint64, v string) {
		sh := int(k % shards)
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
	checkpointAll := func(force bool, wantTotal uint64) {
		t.Helper()
		for lane := 0; lane < w.Lanes(); lane++ {
			if err := w.Checkpoint(lane, cut, force); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.Stats().Checkpoints; got != wantTotal {
			t.Fatalf("%d checkpoints ran, want %d", got, wantTotal)
		}
		segs, ckpts := listFiles(t, dir, segFmt), listFiles(t, dir, ckptFmt)
		if len(segs) != w.Lanes() || len(ckpts) != w.Lanes() {
			t.Fatalf("after checkpoint: segments %v checkpoints %v, want one of each per lane", segs, ckpts)
		}
	}
	lanes := uint64(w.Lanes())
	for i := uint64(0); i < 60; i++ {
		put(i, fmt.Sprintf("v%d", i))
	}
	checkpointAll(false, lanes)
	if w.Stats().CheckpointAgeSec < 0 {
		t.Fatal("no checkpoint age after a checkpoint")
	}
	for i := uint64(100); i < 120; i++ {
		put(i, "tail")
	}
	checkpointAll(false, 2*lanes)
	checkpointAll(false, 2*lanes) // nothing appended: a no-op
	checkpointAll(true, 3*lanes)  // unless forced
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openMode(t, dir, mode, shards, kv.apply)
	defer w2.Close()
	rs := w2.Stats().Recovery
	if rs.CheckpointEntries != 80 || rs.Replayed != 0 {
		t.Fatalf("want 80 entries from checkpoints and a log truncated up to them: %+v", rs)
	}
	want := map[uint64]string{}
	for _, m := range model {
		for k, v := range m {
			want[k] = v
		}
	}
	checkRecovered(t, "reopen", w2, kv, want, seq)
}

// The MANIFEST pins the shard count, and (next test) the layout.
func TestManifestPinsShards(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		dir := t.TempDir()
		if err := openMode(t, dir, mode, 4, noApply).Close(); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Dir: dir, Shards: 8, Mode: mode}, noApply)
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Fatalf("shard mismatch accepted: %v", err)
		}
	})
}

func TestSharedManifestPinsMode(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		dir := t.TempDir()
		if err := openMode(t, dir, mode, 2, noApply).Close(); err != nil {
			t.Fatal(err)
		}
		other := map[Mode]Mode{ModePerShard: ModeShared, ModeShared: ModePerShard}[mode]
		_, err := Open(Options{Dir: dir, Shards: 2, Mode: other}, noApply)
		if err == nil || !strings.Contains(err.Error(), "mode") {
			t.Fatalf("%s open of a %s dir accepted: %v", other, mode, err)
		}
	})
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

// TestManifestRefusals: a MANIFEST that cannot be read, is version 1, or
// carries an unknown version refuses Open with the cause named and is
// left untouched — one failed read must not let other options re-pin
// the directory. Only a MANIFEST that does not exist is created.
func TestManifestRefusals(t *testing.T) {
	dir := t.TempDir()
	if err := openMode(t, dir, ModePerShard, 8, noApply).Close(); err != nil {
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
	refuses(Options{Shards: 4, Mode: ModeShared, FS: fs}, "manifest unreadable", string(pin))
	for _, v := range []int{1, 7} {
		body := fmt.Sprintf(`{"version":%d,"shards":8,"lane":"pershard"}`, v)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		refuses(Options{Shards: 8}, fmt.Sprintf("manifest version %d", v), body)
	}
	if err := os.WriteFile(path, pin, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := openMode(t, dir, ModePerShard, 8, noApply).Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseIsFenced(t *testing.T) {
	w := openMode(t, t.TempDir(), ModePerShard, 1, noApply)
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

func TestNoSyncMode(t *testing.T)       { proveNoSync(t, ModePerShard) }
func TestSharedNoSyncMode(t *testing.T) { proveNoSync(t, ModeShared) }

func proveNoSync(t *testing.T, mode Mode) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Shards: 2, Mode: mode, NoSync: true}, noApply)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if c := w.Append(int(i%2), (i+1)/2, []tkvlog.Entry{{Key: i, Val: "v"}}); c != nil {
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
	w2 := openMode(t, dir, mode, 2, kv.apply)
	defer w2.Close()
	if len(kv.m) != 10 {
		t.Fatalf("clean close in async mode lost records: %d of 10", len(kv.m))
	}
}

// BenchmarkWalAppend is the hot-path allocation gate: staging a record
// runs under the write paths' exclusive stripes and must stay at 0
// allocs/op in both layouts, though the durability ticket is shared by
// every shard of a lane. CI greps each mode= line for " 0 allocs/op".
func BenchmarkWalAppend(b *testing.B) {
	for _, mode := range []Mode{ModePerShard, ModeShared} {
		b.Run("mode="+string(mode), func(b *testing.B) {
			w, err := Open(Options{Dir: b.TempDir(), Shards: 4, Mode: mode, NoSync: true}, noApply)
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
		})
	}
}
