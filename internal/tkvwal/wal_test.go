package tkvwal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// replayKV replays recovered records into a map, the way the store's
// recovery apply does: last write per key wins, tombstones delete.
type replayKV struct {
	m    map[uint64]string
	recs int
}

func newReplayKV() *replayKV { return &replayKV{m: make(map[uint64]string)} }

func (r *replayKV) apply(rec *tkvlog.Record) error {
	r.recs++
	for _, e := range rec.Entries {
		if e.Del {
			delete(r.m, e.Key)
		} else {
			r.m[e.Key] = e.Val
		}
	}
	return nil
}

func openT(t *testing.T, dir string, shards int, apply func(*tkvlog.Record) error) *WAL {
	t.Helper()
	if apply == nil {
		apply = func(*tkvlog.Record) error { return nil }
	}
	w, err := Open(Options{Dir: dir, Shards: shards}, apply)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 2, nil)
	var seq [2]uint64
	want := map[uint64]string{}
	for i := 0; i < 100; i++ {
		sh := i % 2
		seq[sh]++
		key := uint64(i)
		val := fmt.Sprintf("v%d", i)
		c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: key, Val: val}})
		if err := c.Wait(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[key] = val
	}
	// Delete a few through the log too.
	for i := 0; i < 10; i++ {
		sh := i % 2
		seq[sh]++
		c := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Del: true}})
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		delete(want, uint64(i))
	}
	st := w.Stats()
	if st.Appends != 110 {
		t.Fatalf("appends %d", st.Appends)
	}
	for sh := 0; sh < 2; sh++ {
		if st.Shards[sh].Durable != seq[sh] {
			t.Fatalf("shard %d durable %d want %d", sh, st.Shards[sh].Durable, seq[sh])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openT(t, dir, 2, kv.apply)
	defer w2.Close()
	if len(kv.m) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(kv.m), len(want))
	}
	for k, v := range want {
		if kv.m[k] != v {
			t.Fatalf("key %d: got %q want %q", k, kv.m[k], v)
		}
	}
	for sh := 0; sh < 2; sh++ {
		if got := w2.LastSeq(sh); got != seq[sh] {
			t.Fatalf("shard %d recovered seq %d want %d", sh, got, seq[sh])
		}
	}
	if rs := w2.Stats().Recovery; rs.Replayed != 110 || rs.TruncatedBytes != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
}

// TestGroupCommit proves acks park on a committing batch: everything
// appended while one fsync is in flight rides the next one, together.
// The first group's fsync is held (gateFS) while seven more records are
// staged, so the shape is exact: two fsyncs for eight appends, the
// second covering seven.
func TestGroupCommit(t *testing.T) {
	w, g := openGated(t, ModePerShard, 1)
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
	g.next(t)
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

// TestTornTailTruncated cuts the active segment mid-record and checks
// recovery keeps the intact prefix, truncates the tear, and reports it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1, nil)
	for i := uint64(1); i <= 5; i++ {
		if err := w.Append(0, i, []tkvlog.Entry{{Key: i, Val: strings.Repeat("v", 100)}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest segment mid-record.
	segs := listSegs(t, dir)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-30); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openT(t, dir, 1, kv.apply)
	defer w2.Close()
	rs := w2.Stats().Recovery
	if rs.Replayed != 4 || rs.TruncatedBytes == 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if len(kv.m) != 4 {
		t.Fatalf("recovered %d keys, want 4 (torn record 5 dropped)", len(kv.m))
	}
	if got := w2.LastSeq(0); got != 4 {
		t.Fatalf("recovered seq %d want 4", got)
	}
	// The shard keeps going from the truncated watermark.
	if err := w2.Append(0, 5, []tkvlog.Entry{{Key: 5, Val: "again"}}).Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRefusesToStart flips a byte in the middle of a segment:
// recovery must refuse rather than silently skip committed data.
func TestCorruptRefusesToStart(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1, nil)
	for i := uint64(1); i <= 5; i++ {
		if err := w.Append(0, i, []tkvlog.Entry{{Key: i, Val: strings.Repeat("v", 100)}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listSegs(t, dir)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x5a
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir, Shards: 1}, func(*tkvlog.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "refusing to start") {
		t.Fatalf("corrupt segment accepted: %v", err)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 1, nil)
	model := map[uint64]string{}
	var seq uint64
	put := func(k uint64, v string) {
		seq++
		if err := w.Append(0, seq, []tkvlog.Entry{{Key: k, Val: v}}).Wait(); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for i := uint64(0); i < 50; i++ {
		put(i, fmt.Sprintf("v%d", i))
	}
	cut := func() ([]tkvlog.Entry, uint64, error) {
		entries := make([]tkvlog.Entry, 0, len(model))
		for k, v := range model {
			entries = append(entries, tkvlog.Entry{Key: k, Val: v})
		}
		return entries, seq, nil
	}
	if err := w.Checkpoint(0, cut); err != nil {
		t.Fatal(err)
	}
	// Pre-checkpoint segments are gone; more appends land in the fresh one.
	if n := len(listSegs(t, dir)); n != 1 {
		t.Fatalf("%d segments after checkpoint, want 1", n)
	}
	for i := uint64(100); i < 120; i++ {
		put(i, "tail")
	}
	st := w.Stats()
	if st.Checkpoints != 1 || st.CheckpointAgeSec < 0 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
	// A second checkpoint with nothing new after it is a no-op.
	if err := w.Checkpoint(0, cut); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(0, cut); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Checkpoints; got != 2 {
		t.Fatalf("idle checkpoint ran: %d", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openT(t, dir, 1, kv.apply)
	defer w2.Close()
	rs := w2.Stats().Recovery
	if rs.CheckpointEntries == 0 {
		t.Fatalf("no checkpoint replayed: %+v", rs)
	}
	if len(kv.m) != len(model) {
		t.Fatalf("recovered %d keys, want %d", len(kv.m), len(model))
	}
	for k, v := range model {
		if kv.m[k] != v {
			t.Fatalf("key %d: got %q want %q", k, kv.m[k], v)
		}
	}
	if got := w2.LastSeq(0); got != seq {
		t.Fatalf("recovered seq %d want %d", got, seq)
	}
}

func TestManifestPinsShards(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, 4, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Shards: 8}, func(*tkvlog.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard mismatch accepted: %v", err)
	}
}

func TestAppendAfterCloseIsFenced(t *testing.T) {
	w := openT(t, t.TempDir(), 1, nil)
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

func listSegs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

func TestNoSyncMode(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Shards: 1, NoSync: true}, func(*tkvlog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if c := w.Append(0, i, []tkvlog.Entry{{Key: i, Val: "v"}}); c != nil {
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != 0 {
		t.Fatalf("async mode fsynced %d times", got)
	}
	kv := newReplayKV()
	w2 := openT(t, dir, 1, kv.apply)
	defer w2.Close()
	if len(kv.m) != 10 {
		t.Fatalf("clean close in async mode lost records: %d of 10", len(kv.m))
	}
}

// BenchmarkWalAppend is the hot-path allocation gate: enqueueing a
// record into the group-commit buffer must stay at or below one
// allocation per op (the amortized group handle), like the repl ring.
// CI greps for " 0 allocs/op" or " 1 allocs/op".
func BenchmarkWalAppend(b *testing.B) {
	w, err := Open(Options{Dir: b.TempDir(), Shards: 1, NoSync: true},
		func(*tkvlog.Record) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	entries := []tkvlog.Entry{{Key: 1, Val: "value-one"}, {Key: 2, Val: "value-two"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(0, uint64(i+1), entries)
	}
}
