package tkvwal

// Shared-lane tests: the interleaved one-file layout (ModeShared) has
// to honor the same contracts the per-shard suite proves — recovery
// round trips, torn tails truncate, corruption refuses, checkpoints
// truncate, group commit amortizes — plus the lane-specific ones: the
// on-disk interleaving demultiplexes per shard, one fsync covers every
// shard's waiters, and every whole-record prefix of the single lane
// segment recovers to exactly that prefix's fold (the every-cut and
// every-offset sweeps, mirroring the tkvlog reader suites).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

func openShared(t *testing.T, dir string, shards int, apply func(*tkvlog.Record) error) *WAL {
	t.Helper()
	if apply == nil {
		apply = func(*tkvlog.Record) error { return nil }
	}
	w, err := Open(Options{Dir: dir, Shards: shards, Mode: ModeShared}, apply)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func listLaneSegs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if _, ok := parseLaneSeg(e.Name()); ok {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

func TestSharedLaneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, 4, nil)
	var seq [4]uint64
	want := map[uint64]string{}
	for i := 0; i < 100; i++ {
		sh := i % 4
		seq[sh]++
		key := uint64(i)
		val := fmt.Sprintf("v%d", i)
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: key, Val: val}}).Wait(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[key] = val
	}
	for i := 0; i < 12; i++ {
		sh := i % 4
		seq[sh]++
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Del: true}}).Wait(); err != nil {
			t.Fatal(err)
		}
		delete(want, uint64(i))
	}
	st := w.Stats()
	if st.Mode != ModeShared {
		t.Fatalf("mode %q", st.Mode)
	}
	if st.Appends != 112 {
		t.Fatalf("appends %d", st.Appends)
	}
	if st.BytesAppended == 0 || st.PendingPeakBytes == 0 {
		t.Fatalf("byte accounting missing: %+v", st)
	}
	for sh := 0; sh < 4; sh++ {
		if st.Shards[sh].Durable != seq[sh] {
			t.Fatalf("shard %d durable %d want %d", sh, st.Shards[sh].Durable, seq[sh])
		}
	}
	// One lane file, no per-shard files: the layout is the point.
	if n := len(listLaneSegs(t, dir)); n != 1 {
		t.Fatalf("%d lane segments, want 1", n)
	}
	if n := len(listSegs(t, dir)); n != 0 {
		t.Fatalf("%d per-shard segments in a shared dir", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openShared(t, dir, 4, kv.apply)
	defer w2.Close()
	if len(kv.m) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(kv.m), len(want))
	}
	for k, v := range want {
		if kv.m[k] != v {
			t.Fatalf("key %d: got %q want %q", k, kv.m[k], v)
		}
	}
	for sh := 0; sh < 4; sh++ {
		if got := w2.LastSeq(sh); got != seq[sh] {
			t.Fatalf("shard %d recovered seq %d want %d", sh, got, seq[sh])
		}
	}
	if rs := w2.Stats().Recovery; rs.Replayed != 112 || rs.TruncatedBytes != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
}

// laneFixture writes a deterministic interleaved multi-shard segment
// and returns the baseline dir, the segment bytes, the record end
// offsets, and the decoded records (for prefix folds).
func laneFixture(t *testing.T, shards, records int) (dir string, seg []byte, ends []int64, recs []tkvlog.Record) {
	t.Helper()
	dir = t.TempDir()
	w := openShared(t, dir, shards, nil)
	var seq = make([]uint64, shards)
	for i := 0; i < records; i++ {
		sh := i % shards
		seq[sh]++
		val := strings.Repeat(fmt.Sprintf("v%d-", i), 1+i%3)
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: uint64(i), Val: val}}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listLaneSegs(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d lane segments, want 1", len(segs))
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	r := tkvlog.NewReader(bytes.NewReader(seg))
	for {
		var rec tkvlog.Record
		if err := r.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("fixture segment unreadable: %v", err)
		}
		recs = append(recs, tkvlog.Record{
			Shard: rec.Shard, Seq: rec.Seq,
			Entries: append([]tkvlog.Entry(nil), rec.Entries...),
		})
		ends = append(ends, r.Offset())
	}
	if len(recs) != records {
		t.Fatalf("fixture decoded %d records, want %d", len(recs), records)
	}
	return dir, seg, ends, recs
}

// rebuildLaneDir materializes a dir holding the baseline MANIFEST and
// one lane segment with the given bytes.
func rebuildLaneDir(t *testing.T, baseDir string, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	mf, err := os.ReadFile(filepath.Join(baseDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), mf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, laneSegName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// foldPrefix replays records[0:k] into a map and the per-shard last
// seqs the recovery should land on.
func foldPrefix(recs []tkvlog.Record, k, shards int) (map[uint64]string, []uint64) {
	m := map[uint64]string{}
	last := make([]uint64, shards)
	for _, rec := range recs[:k] {
		for _, e := range rec.Entries {
			if e.Del {
				delete(m, e.Key)
			} else {
				m[e.Key] = e.Val
			}
		}
		last[rec.Shard] = rec.Seq
	}
	return m, last
}

// TestSharedLaneEveryCutTruncation truncates the interleaved lane
// segment at every byte length: recovery must keep exactly the
// whole-record prefix, truncate the tear, and leave every shard's
// watermark at its prefix seq — the multi-shard analogue of the tkvlog
// reader's every-cut suite.
func TestSharedLaneEveryCutTruncation(t *testing.T) {
	const shards, records = 2, 14
	base, seg, ends, recs := laneFixture(t, shards, records)
	for cut := 0; cut <= len(seg); cut++ {
		k := 0
		for k < len(ends) && ends[k] <= int64(cut) {
			k++
		}
		dir := rebuildLaneDir(t, base, seg[:cut])
		kv := newReplayKV()
		w, err := Open(Options{Dir: dir, Shards: shards, Mode: ModeShared}, kv.apply)
		if err != nil {
			t.Fatalf("cut %d: recovery refused: %v", cut, err)
		}
		rs := w.Stats().Recovery
		if rs.Replayed != uint64(k) {
			t.Fatalf("cut %d: replayed %d records, want prefix %d", cut, rs.Replayed, k)
		}
		wantTorn := int64(cut)
		if k > 0 {
			wantTorn = int64(cut) - ends[k-1]
		}
		if rs.TruncatedBytes != wantTorn {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rs.TruncatedBytes, wantTorn)
		}
		wantM, wantLast := foldPrefix(recs, k, shards)
		if len(kv.m) != len(wantM) {
			t.Fatalf("cut %d: recovered %d keys, want %d", cut, len(kv.m), len(wantM))
		}
		for key, v := range wantM {
			if kv.m[key] != v {
				t.Fatalf("cut %d: key %d got %q want %q", cut, key, kv.m[key], v)
			}
		}
		for sh := 0; sh < shards; sh++ {
			if got := w.LastSeq(sh); got != wantLast[sh] {
				t.Fatalf("cut %d: shard %d seq %d want %d", cut, sh, got, wantLast[sh])
			}
		}
		w.Close()
	}
}

// TestSharedLaneEveryOffsetCorruption flips every byte of the lane
// segment in turn. The honest outcomes are exactly two: recovery
// refuses to start (corruption detected), or it recovers a
// whole-record prefix that stops before the damaged record (a flipped
// length field in the tail can make the damage indistinguishable from
// a torn tail — those records were never promised past the tear).
// Recovering anything else — a skipped middle record, a mutated value
// — is the silent-loss bug class this sweep exists to catch.
func TestSharedLaneEveryOffsetCorruption(t *testing.T) {
	const shards, records = 2, 10
	base, seg, ends, recs := laneFixture(t, shards, records)
	for off := 0; off < len(seg); off++ {
		k := 0 // index of the record containing the flipped byte
		for k < len(ends) && ends[k] <= int64(off) {
			k++
		}
		mut := append([]byte(nil), seg...)
		mut[off] ^= 0x5a
		dir := rebuildLaneDir(t, base, mut)
		kv := newReplayKV()
		w, err := Open(Options{Dir: dir, Shards: shards, Mode: ModeShared}, kv.apply)
		if err != nil {
			if !strings.Contains(err.Error(), "refusing to start") {
				t.Fatalf("off %d: unexpected refusal shape: %v", off, err)
			}
			continue
		}
		// Recovery accepted the mutation: it must have read it as a torn
		// tail at the damaged record, yielding exactly the prefix fold.
		rs := w.Stats().Recovery
		if rs.Replayed != uint64(k) {
			t.Fatalf("off %d (record %d): replayed %d records, want prefix %d", off, k, rs.Replayed, k)
		}
		wantM, wantLast := foldPrefix(recs, k, shards)
		if len(kv.m) != len(wantM) {
			t.Fatalf("off %d: recovered %d keys, want %d", off, len(kv.m), len(wantM))
		}
		for key, v := range wantM {
			if kv.m[key] != v {
				t.Fatalf("off %d: key %d got %q want %q", off, key, kv.m[key], v)
			}
		}
		for sh := 0; sh < shards; sh++ {
			if got := w.LastSeq(sh); got != wantLast[sh] {
				t.Fatalf("off %d: shard %d seq %d want %d", off, sh, got, wantLast[sh])
			}
		}
		w.Close()
	}
}

func TestSharedManifestPinsMode(t *testing.T) {
	shared := t.TempDir()
	w := openShared(t, shared, 2, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: shared, Shards: 2}, func(*tkvlog.Record) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "mode") {
		t.Fatalf("per-shard open of a shared dir accepted: %v", err)
	}

	pershard := t.TempDir()
	w2 := openT(t, pershard, 2, nil)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: pershard, Shards: 2, Mode: ModeShared}, func(*tkvlog.Record) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "mode") {
		t.Fatalf("shared open of a per-shard dir accepted: %v", err)
	}
}

// TestSharedCheckpointLane drives the one-cut-covers-all-shards
// checkpoint: after CheckpointLane only the fresh lane segment remains,
// recovery restores from the checkpoint with nothing to replay, and an
// idle lane checkpoint is a no-op.
func TestSharedCheckpointLane(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, 2, nil)
	model := [2]map[uint64]string{{}, {}}
	var seq [2]uint64
	put := func(sh int, k uint64, v string) {
		seq[sh]++
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: k, Val: v}}).Wait(); err != nil {
			t.Fatal(err)
		}
		model[sh][k] = v
	}
	for i := uint64(0); i < 60; i++ {
		put(int(i%2), i, fmt.Sprintf("v%d", i))
	}
	cut := func(sh int) ([]tkvlog.Entry, uint64, error) {
		entries := make([]tkvlog.Entry, 0, len(model[sh]))
		for k, v := range model[sh] {
			entries = append(entries, tkvlog.Entry{Key: k, Val: v})
		}
		return entries, seq[sh], nil
	}
	if err := w.CheckpointLane(cut, false); err != nil {
		t.Fatal(err)
	}
	if n := len(listLaneSegs(t, dir)); n != 1 {
		t.Fatalf("%d lane segments after checkpoint, want 1", n)
	}
	for i := uint64(100); i < 120; i++ {
		put(int(i%2), i, "tail")
	}
	st := w.Stats()
	if st.Checkpoints != 1 || st.CheckpointAgeSec < 0 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
	// Idle lane checkpoints are no-ops after one more real one.
	if err := w.CheckpointLane(cut, false); err != nil {
		t.Fatal(err)
	}
	if err := w.CheckpointLane(cut, false); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Checkpoints; got != 2 {
		t.Fatalf("idle lane checkpoint ran: %d", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kv := newReplayKV()
	w2 := openShared(t, dir, 2, kv.apply)
	defer w2.Close()
	rs := w2.Stats().Recovery
	if rs.CheckpointEntries == 0 {
		t.Fatalf("no lane checkpoint replayed: %+v", rs)
	}
	if rs.Replayed != 0 {
		t.Fatalf("lane should be truncated up to the checkpoint, replayed %d", rs.Replayed)
	}
	for sh := 0; sh < 2; sh++ {
		for k, v := range model[sh] {
			if kv.m[k] != v {
				t.Fatalf("shard %d key %d: got %q want %q", sh, k, kv.m[k], v)
			}
		}
		if got := w2.LastSeq(sh); got != seq[sh] {
			t.Fatalf("shard %d recovered seq %d want %d", sh, got, seq[sh])
		}
	}
}

func TestSharedNoSyncMode(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Shards: 2, Mode: ModeShared, NoSync: true},
		func(*tkvlog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if c := w.Append(int(i%2), (i+1)/2, []tkvlog.Entry{{Key: i, Val: "v"}}); c != nil {
			if err := c.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != 0 {
		t.Fatalf("async lane fsynced %d times", got)
	}
	kv := newReplayKV()
	w2 := openShared(t, dir, 2, kv.apply)
	defer w2.Close()
	if len(kv.m) != 10 {
		t.Fatalf("clean close in async mode lost records: %d of 10", len(kv.m))
	}
}

// TestSharedAbandonCrash is the in-process SIGKILL stand-in on the
// lane: concurrent appenders on every shard tally their acks, the lane
// is abandoned mid-flight, and recovery must surface every acked record
// on every shard.
func TestSharedAbandonCrash(t *testing.T) {
	dir := t.TempDir()
	w := openShared(t, dir, 4, nil)
	const workers = 4
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
	w.Abandon()
	wg.Wait()
	var total uint64
	for _, a := range acked {
		total += a
	}
	if total == 0 {
		t.Fatal("no acks before the crash; drill proves nothing")
	}

	got := map[uint64]bool{}
	w2, err := Open(Options{Dir: dir, Shards: 4, Mode: ModeShared}, func(rec *tkvlog.Record) error {
		for _, e := range rec.Entries {
			got[e.Key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer w2.Close()
	for sh := 0; sh < workers; sh++ {
		for seq := uint64(1); seq <= acked[sh]; seq++ {
			if !got[uint64(sh)<<32|seq] {
				t.Fatalf("acked shard %d seq %d lost in crash", sh, seq)
			}
		}
	}
	t.Logf("lane crash drill: %d acked across %d shards, all recovered", total, workers)
}

// BenchmarkWalAppendShared is the shared-lane twin of the
// BenchmarkWalAppend alloc gate: staging a record into the lane's
// pending pipeline must stay at 0 allocs/op even though the durability
// ticket is shared across every shard. CI greps for " 0 allocs/op".
func BenchmarkWalAppendShared(b *testing.B) {
	w, err := Open(Options{Dir: b.TempDir(), Shards: 4, Mode: ModeShared, NoSync: true},
		func(*tkvlog.Record) error { return nil })
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
