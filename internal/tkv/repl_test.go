package tkv

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// readWindow reads up to max records of shard's window from sequence from,
// and fails the test unless record i carries sequence from+i: a window never
// serves a record out of place, and never one it does not hold.
func readWindow(t *testing.T, log *ReplLog, shard int, from uint64, max int) ([]ReplRec, bool) {
	t.Helper()
	recs, ok := log.ReadFrom(shard, from, max, nil)
	for i, r := range recs {
		if r.Seq != from+uint64(i) {
			t.Fatalf("shard %d: ReadFrom(%d) record %d has seq %d", shard, from, i, r.Seq)
		}
	}
	return recs, ok
}

// restartedAt checks the window of a shard whose log restarted at head (a
// WAL reopen, a restore from a cut): it holds nothing from before, so it
// refuses head — a cut is the only way there — and serves head+1, empty.
func restartedAt(t *testing.T, log *ReplLog, shard int, head uint64) {
	t.Helper()
	if recs, ok := readWindow(t, log, shard, head, 64); head > 0 && ok {
		t.Fatalf("shard %d restarted at %d: ReadFrom(%d) = %d records, ok", shard, head, head, len(recs))
	}
	if recs, ok := readWindow(t, log, shard, head+1, 64); !ok || len(recs) != 0 {
		t.Fatalf("shard %d restarted at %d: ReadFrom(%d) = %d records, ok=%v; want none, ok", shard, head, head+1, len(recs), ok)
	}
}

// drainInto replays everything new in src's replication log into dst,
// resyncing from a shard cut when the ring has already evicted the
// follower's position. cursors persists across calls.
func drainInto(t *testing.T, src, dst *Store, cursors []uint64) {
	t.Helper()
	log := src.Repl()
	var rec tkvlog.Record
	for shard := range cursors {
		for {
			recs, ok := readWindow(t, log, shard, cursors[shard]+1, 64)
			if !ok {
				pairs, seq, err := src.ReplShardCut(shard)
				if err != nil {
					t.Fatal(err)
				}
				if err := dst.ReplRestoreShard(shard, pairs, seq); err != nil {
					t.Fatal(err)
				}
				cursors[shard] = seq
				continue
			}
			if len(recs) == 0 {
				break
			}
			for _, r := range recs {
				rec.Shard = uint16(shard)
				rec.Seq = r.Seq
				rec.Entries = r.Entries
				if err := dst.ReplApply(&rec); err != nil {
					t.Fatal(err)
				}
				cursors[shard] = r.Seq
			}
		}
	}
}

func sameSnapshot(t *testing.T, a, b *Store) {
	t.Helper()
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(sb) {
		t.Fatalf("snapshots differ in size: %d vs %d", len(sa), len(sb))
	}
	for k, v := range sa {
		if bv, ok := sb[k]; !ok || bv != v {
			t.Fatalf("key %d: primary %q, follower %q (present %v)", k, v, bv, ok)
		}
	}
}

// TestReplEmitAll checks that every write path — single-key ops and
// batches — lands in the ring, with dense per-shard sequence numbers,
// and that replaying the ring reproduces the store exactly.
func TestReplEmitAll(t *testing.T) {
	st := openTest(t, Config{Shards: 4, ReplRing: 1024})
	fo := openTest(t, Config{Shards: 4, ReplRing: 1024})
	fo.SetReadOnly(true)

	for i := uint64(0); i < 50; i++ {
		if _, err := st.Put(i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(999); err != nil { // no-op delete must not log
		t.Fatal(err)
	}
	if sw, err := st.CAS(3, "v3", "swapped"); err != nil || !sw {
		t.Fatalf("CAS = %v %v", sw, err)
	}
	if sw, err := st.CAS(4, "wrong", "x"); err != nil || sw { // failed CAS must not log
		t.Fatalf("CAS stale = %v %v", sw, err)
	}
	if _, err := st.Add(100, 42); err != nil {
		t.Fatal(err)
	}
	// Single-shard and cross-shard batches.
	if _, err := st.Batch([]Op{
		{Kind: OpPut, Key: 200, Value: "b1"},
		{Kind: OpPut, Key: 201, Value: "b2"},
		{Kind: OpDelete, Key: 5},
		{Kind: OpAdd, Key: 100, Delta: 8},
	}); err != nil {
		t.Fatal(err)
	}

	log := st.Repl()
	// Sequences are dense: replaying 1..Head must succeed shard by shard.
	for shard := 0; shard < log.Shards(); shard++ {
		recs, ok := log.ReadFrom(shard, 1, 1<<20, nil)
		if !ok {
			t.Fatalf("shard %d: ring evicted with ring >> writes", shard)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("shard %d: record %d has seq %d", shard, i, r.Seq)
			}
		}
		if head := log.Head(shard); head != uint64(len(recs)) {
			t.Fatalf("shard %d: head %d but %d records", shard, head, len(recs))
		}
	}

	drainInto(t, st, fo, make([]uint64, log.Shards()))
	sameSnapshot(t, st, fo)
	if v, ok, _ := fo.Get(100); !ok || v != "50" {
		t.Fatalf("follower counter = %q %v, want 50", v, ok)
	}
	if _, ok, _ := fo.Get(7); ok {
		t.Fatal("follower still has deleted key 7")
	}
}

// TestReplRingOverflow checks eviction semantics: a reader whose cursor
// fell off the ring gets ok=false and must resync, and reading from the
// surviving tail still works.
func TestReplRingOverflow(t *testing.T) {
	st := openTest(t, Config{Shards: 1, ReplRing: 8})
	for i := uint64(0); i < 100; i++ {
		if _, err := st.Put(i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	log := st.Repl()
	head := log.Head(0)
	if head != 100 {
		t.Fatalf("head = %d, want 100", head)
	}
	if _, ok := log.ReadFrom(0, 1, 64, nil); ok {
		t.Fatal("ReadFrom(1) succeeded after eviction")
	}
	recs, ok := log.ReadFrom(0, head-7, 64, nil)
	if !ok || len(recs) != 8 {
		t.Fatalf("tail read = %d recs ok=%v, want 8 true", len(recs), ok)
	}
	// Reading from beyond the head returns empty, not an error.
	recs, ok = log.ReadFrom(0, head+1, 64, nil)
	if !ok || len(recs) != 0 {
		t.Fatalf("past-head read = %d recs ok=%v", len(recs), ok)
	}
}

// TestReplReadOnly checks the follower write fence on every kind of store
// — no log, a ring, a WAL, both: every external write path bounces with
// ErrNotPrimary, reads keep working, ReplApply (how a follower's data
// arrives) is exempt, and clearing the fence restores writes.
func TestReplReadOnly(t *testing.T) {
	for _, a := range attachments {
		t.Run(a.name, func(t *testing.T) {
			st := a.open(t, t.TempDir())
			if _, err := st.Put(1, "a"); err != nil {
				t.Fatal(err)
			}
			st.SetReadOnly(true)

			if _, err := st.Put(2, "b"); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("Put on follower = %v", err)
			}
			if _, err := st.Delete(1); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("Delete on follower = %v", err)
			}
			if _, err := st.CAS(1, "a", "b"); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("CAS on follower = %v", err)
			}
			if _, err := st.Add(9, 1); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("Add on follower = %v", err)
			}
			if _, err := st.Batch([]Op{{Kind: OpPut, Key: 3, Value: "c"}}); !errors.Is(err, ErrNotPrimary) {
				t.Errorf("Batch on follower = %v", err)
			}
			// Reads — single, multi, batch of gets — stay open (stale-bounded
			// follower reads are the point of the role), and nothing above
			// got through.
			if v, ok, err := st.Get(1); err != nil || !ok || v != "a" {
				t.Fatalf("Get on follower = %q %v %v", v, ok, err)
			}
			if res, err := st.MGet([]uint64{1, 2, 3, 9}); err != nil || !res[0].Found || res[1].Found || res[2].Found || res[3].Found {
				t.Fatalf("MGet on follower = %+v %v", res, err)
			}
			if _, err := st.Batch([]Op{{Kind: OpGet, Key: 1}}); err != nil {
				t.Fatalf("read-only batch on follower = %v", err)
			}
			if a.ring {
				rec := &tkvlog.Record{Shard: uint16(st.ShardOf(2)), Seq: st.Repl().Head(st.ShardOf(2)) + 1,
					Entries: []tkvlog.Entry{{Key: 2, Val: "replicated"}}}
				if err := st.ReplApply(rec); err != nil {
					t.Fatalf("ReplApply on follower = %v", err)
				}
				if v, ok, err := st.Get(2); err != nil || !ok || v != "replicated" {
					t.Fatalf("Get of a replicated key = %q %v %v", v, ok, err)
				}
			}

			st.SetReadOnly(false)
			if _, err := st.Put(2, "b"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplApplyValidates checks the applier's defenses: wrong shard
// index and keys that do not belong to the record's shard are rejected.
func TestReplApplyValidates(t *testing.T) {
	st := openTest(t, Config{Shards: 4, ReplRing: 64})
	rec := &tkvlog.Record{Shard: 99, Seq: 1}
	if err := st.ReplApply(rec); err == nil {
		t.Fatal("ReplApply accepted shard 99 of 4")
	}
	// Find a key NOT on shard 0.
	var foreign uint64
	for k := uint64(0); ; k++ {
		if st.ShardOf(k) != 0 {
			foreign = k
			break
		}
	}
	rec = &tkvlog.Record{Shard: 0, Seq: 1, Entries: []tkvlog.Entry{{Key: foreign, Val: "x"}}}
	if err := st.ReplApply(rec); err == nil {
		t.Fatal("ReplApply accepted a foreign key")
	}
}

// TestReplApplyWritingNothing: a replicated record whose application writes
// nothing here — an empty one, or a tombstone of a key the follower lacks —
// has no commit to append it, and is appended directly: the follower's head
// and applied watermark still move to its sequence, and its window holds it.
func TestReplApplyWritingNothing(t *testing.T) {
	fo := openTest(t, Config{Shards: 2, ReplRing: 64})
	const key = 7
	sh := fo.ShardOf(key)
	for seq, entries := range [][]tkvlog.Entry{nil, {{Key: key, Del: true}}} {
		rec := &tkvlog.Record{Shard: uint16(sh), Seq: uint64(seq + 1), Entries: entries}
		if err := fo.ReplApply(rec); err != nil {
			t.Fatal(err)
		}
		if head, applied := fo.Repl().Head(sh), fo.Repl().Applied(sh); head != rec.Seq || applied != rec.Seq {
			t.Fatalf("after record %d: head %d, applied %d", rec.Seq, head, applied)
		}
		recs, ok := readWindow(t, fo.Repl(), sh, rec.Seq, 1)
		if !ok || len(recs) != 1 || len(recs[0].Entries) != len(entries) {
			t.Fatalf("window at %d: %+v (ok %v), want the record", rec.Seq, recs, ok)
		}
	}
}

// TestReplRestoreShard checks snapshot resync: stale follower keys are
// dropped, the cut's pairs land, the applied watermark jumps, and the
// follower's own window restarts at the cut: it refuses everything up to it
// and takes the next record under the primary's number.
func TestReplRestoreShard(t *testing.T) {
	st := openTest(t, Config{Shards: 1, ReplRing: 64})
	fo := openTest(t, Config{Shards: 1, ReplRing: 64})
	fo.SetReadOnly(true)

	// Seed the follower with stale state via a record it will later
	// learn was superseded.
	stale := &tkvlog.Record{Shard: 0, Seq: 1, Entries: []tkvlog.Entry{{Key: 77, Val: "stale"}}}
	if err := fo.ReplApply(stale); err != nil {
		t.Fatal(err)
	}

	for i := uint64(0); i < 20; i++ {
		if _, err := st.Put(i, "p"); err != nil {
			t.Fatal(err)
		}
	}
	pairs, seq, err := st.ReplShardCut(0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 20 || len(pairs) != 20 {
		t.Fatalf("cut = %d pairs at seq %d, want 20 at 20", len(pairs), seq)
	}
	if err := fo.ReplRestoreShard(0, pairs, seq); err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, st, fo)
	if got := fo.Repl().Applied(0); got != seq {
		t.Fatalf("follower applied = %d, want %d", got, seq)
	}
	if fo.Stats().Repl.Resyncs == 0 {
		t.Fatal("resync not counted")
	}
	restartedAt(t, fo.Repl(), 0, seq)
	next := &tkvlog.Record{Shard: 0, Seq: seq + 1, Entries: []tkvlog.Entry{{Key: 5, Val: "next"}}}
	if err := fo.ReplApply(next); err != nil {
		t.Fatal(err)
	}
	if recs, ok := readWindow(t, fo.Repl(), 0, seq+1, 64); !ok || len(recs) != 1 || recs[0].Entries[0] != next.Entries[0] {
		t.Fatalf("after the restore: ReadFrom(%d) = %+v ok=%v, want the one applied record", seq+1, recs, ok)
	}
	if _, ok := readWindow(t, fo.Repl(), 0, seq, 64); ok {
		t.Fatalf("ReadFrom(%d) served a record from before the restore", seq)
	}
	// A record that skips ahead (a caller without the applier's gap check)
	// starts the window over at itself: the sequences it skipped were never
	// held, so they are refused, not served as whatever the slots contain.
	jump := &tkvlog.Record{Shard: 0, Seq: seq + 5, Entries: []tkvlog.Entry{{Key: 6, Val: "jump"}}}
	if err := fo.ReplApply(jump); err != nil {
		t.Fatal(err)
	}
	if recs, ok := readWindow(t, fo.Repl(), 0, seq+2, 64); ok {
		t.Fatalf("ReadFrom(%d) = %d records, ok; the window never held it", seq+2, len(recs))
	}
	if recs, ok := readWindow(t, fo.Repl(), 0, seq+5, 64); !ok || len(recs) != 1 {
		t.Fatalf("ReadFrom(%d) = %d records ok=%v, want the jumped-to record", seq+5, len(recs), ok)
	}
}

// TestReplConvergenceConcurrent hammers a replicated primary from many
// goroutines while a follower drains the ring, then verifies the
// follower converges to exactly the primary's final state.
func TestReplConvergenceConcurrent(t *testing.T) {
	const (
		workers = 8
		nops    = 400
		keys    = 64
	)
	st := openTest(t, Config{Shards: 4, ReplRing: 4096})
	fo := openTest(t, Config{Shards: 4, ReplRing: 4096})
	fo.SetReadOnly(true)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < nops; i++ {
				k := uint64((w*31 + i*7) % keys)
				switch i % 5 {
				case 0, 1:
					st.Put(k, fmt.Sprintf("w%d-%d", w, i))
				case 2:
					st.Add(k+keys, 1)
				case 3:
					st.Delete(k)
				case 4:
					st.Batch([]Op{
						{Kind: OpPut, Key: k, Value: "b"},
						{Kind: OpPut, Key: k + 2*keys, Value: "b2"},
					})
				}
			}
		}(w)
	}
	wg.Wait()

	drainInto(t, st, fo, make([]uint64, st.Repl().Shards()))
	sameSnapshot(t, st, fo)

	// The adders all hit counter keys; their sum on the follower must be
	// exactly the primary's (no lost or doubled increments).
	for k := uint64(keys); k < 2*keys; k++ {
		pv, pok, _ := st.Get(k)
		fv, fok, _ := fo.Get(k)
		if pok != fok || pv != fv {
			t.Fatalf("counter %d: primary %q(%v) follower %q(%v)", k, pv, pok, fv, fok)
		}
	}
}

// TestReplStats checks the stats surface: roles, lag arithmetic, and the
// per-shard table.
func TestReplStats(t *testing.T) {
	st := openTest(t, Config{Shards: 2, ReplRing: 64})
	s := st.Stats()
	if s.Repl == nil {
		t.Fatal("Stats().Repl nil with ReplRing set")
	}
	if s.Repl.Role != "primary" {
		t.Fatalf("role = %q", s.Repl.Role)
	}
	st.SetReadOnly(true)
	if r := st.Stats().Repl; r.Role != "follower" {
		t.Fatalf("read-only role = %q", r.Role)
	}
	st.SetReadOnly(false)

	for i := uint64(0); i < 10; i++ {
		st.Put(i, "x")
	}
	// With no followers, primary lag reads 0 (nothing is waiting).
	if r := st.Stats().Repl; r.Lag != 0 {
		t.Fatalf("lag with no followers = %d", r.Lag)
	}
	log := st.Repl()
	log.AddFollower()
	defer log.RemoveFollower()
	var want uint64
	for i := 0; i < log.Shards(); i++ {
		want += log.Head(i)
	}
	if r := st.Stats().Repl; r.Lag != want {
		t.Fatalf("unshipped lag = %d, want %d", r.Lag, want)
	}
	for i := 0; i < log.Shards(); i++ {
		log.NoteShipped(i, log.Head(i))
	}
	if r := st.Stats().Repl; r.Lag != 0 {
		t.Fatalf("shipped lag = %d", r.Lag)
	}

	no := openTest(t, Config{Shards: 2})
	if no.Stats().Repl != nil {
		t.Fatal("Stats().Repl non-nil without ReplRing")
	}
}

// BenchmarkReplPut is the commit-path overhead spot-check: the same Put
// stream against a store with and without a replication ring attached.
// The delta is what a primary pays per write for replication with no
// follower connected — the shard's gate, the record's entry slice, and the
// ring append from inside the commit — and must stay small
// (EXPERIMENTS.md budgets 5%).
func BenchmarkReplPut(b *testing.B) {
	for _, cfg := range []struct {
		name string
		ring int
	}{{"ring=off", 0}, {"ring=1024", 1024}} {
		b.Run(cfg.name, func(b *testing.B) {
			st, err := Open(Config{Shards: 4, PoolSize: 2, Buckets: 128, ReplRing: cfg.ring})
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
			for i := 0; i < b.N; i++ {
				if _, err := st.Put(uint64(i)&255, "updated-value"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
