package tkvwal

// Recovery sweeps over the lane's segment, which interleaves every shard:
// every whole-record prefix recovers to exactly that prefix's fold, each
// shard at its own last seq (every-cut), and no flipped byte is ever read
// as anything but a refusal or a torn tail at the damaged record
// (every-offset) — the tkvlog reader suites, lifted to a log of several
// shards.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// fixSeg is the fixture log's segment: its bytes, each record's end
// offset, and the decoded records (for prefix folds).
type fixSeg struct {
	name string
	data []byte
	ends []int64
	recs []tkvlog.Record
}

// walFixture writes a deterministic log, records dealt round-robin over
// the shards, and returns its MANIFEST and its one segment.
func walFixture(t *testing.T, shards, records int) (manifest []byte, sg fixSeg) {
	t.Helper()
	dir := t.TempDir()
	w := openLog(t, dir, shards, noApply)
	seq := make([]uint64, shards)
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
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	segs := listFiles(t, dir, segFmt)
	if len(segs) != 1 {
		t.Fatalf("fixture: segments %v, want one", segs)
	}
	sg.name = segs[0]
	if sg.data, err = os.ReadFile(filepath.Join(dir, sg.name)); err != nil {
		t.Fatal(err)
	}
	r := tkvlog.NewReader(bytes.NewReader(sg.data))
	for {
		var rec tkvlog.Record
		if err := r.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("fixture segment %s unreadable: %v", sg.name, err)
		}
		sg.recs = append(sg.recs, rec)
		sg.ends = append(sg.ends, r.Offset())
	}
	if len(sg.recs) != records {
		t.Fatalf("fixture: %d records, want %d", len(sg.recs), records)
	}
	return manifest, sg
}

// damagedDir materializes the fixture with the segment's bytes replaced.
func damagedDir(t *testing.T, manifest []byte, sg fixSeg, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range map[string][]byte{manifestName: manifest, sg.name: data} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// foldDamaged is what recovery must land on when the segment keeps only
// its first k records: the map, the per-shard last seqs, and the record
// count.
func foldDamaged(sg fixSeg, k, shards int) (m map[uint64]string, last []uint64, n uint64) {
	m, last = map[uint64]string{}, make([]uint64, shards)
	for _, rec := range sg.recs[:k] {
		for _, e := range rec.Entries {
			m[e.Key] = e.Val
		}
		last[rec.Shard] = rec.Seq
		n++
	}
	return m, last, n
}

// recordAt returns the index of the record holding byte off (the count
// of whole records before it) and that record's start offset.
func recordAt(ends []int64, off int) (k int, start int64) {
	for k < len(ends) && ends[k] <= int64(off) {
		start = ends[k]
		k++
	}
	return k, start
}

// TestSharedLaneEveryCutTruncation truncates the segment at every byte
// length: recovery must keep exactly the whole-record prefix, truncate the
// tear and report it, leave every shard's watermark at its prefix seq —
// and the lane must keep going from there, what it appends next being
// read back by the boot after.
func TestSharedLaneEveryCutTruncation(t *testing.T) { eachShape(t, 3, testEveryCutTruncation) }

func testEveryCutTruncation(t *testing.T, shards int) {
	const records = 9
	manifest, sg := walFixture(t, shards, records)
	for cut := 0; cut <= len(sg.data); cut++ {
		label := fmt.Sprintf("%s cut %d", sg.name, cut)
		k, start := recordAt(sg.ends, cut)
		dir := damagedDir(t, manifest, sg, sg.data[:cut])
		kv := newReplayKV()
		w, err := Open(Options{Dir: dir, Shards: shards}, kv.apply)
		if err != nil {
			t.Fatalf("%s: recovery refused: %v", label, err)
		}
		want, last, n := foldDamaged(sg, k, shards)
		if rs := w.Stats().Recovery; rs.Replayed != n || rs.TruncatedBytes != int64(cut)-start {
			t.Fatalf("%s: replayed %d truncated %d, want %d and %d", label, rs.Replayed, rs.TruncatedBytes, n, int64(cut)-start)
		}
		checkRecovered(t, label, w, kv, want, last)
		if int64(cut)-start != 1 {
			w.Close()
			continue
		}
		// Once per torn record: the lane keeps going, and the next boot
		// reads it all.
		if err := w.Append(0, last[0]+1, []tkvlog.Entry{{Key: 1 << 40, Val: "again"}}).Wait(); err != nil {
			t.Fatalf("%s: append after recovery: %v", label, err)
		}
		w.Close()
		want[1<<40], last[0] = "again", last[0]+1
		kv = newReplayKV()
		w = openLog(t, dir, shards, kv.apply)
		checkRecovered(t, label+", reopened", w, kv, want, last)
		w.Close()
	}
}

// TestSharedLaneEveryOffsetCorruption flips every byte of the segment in
// turn. The honest outcomes are exactly two: recovery refuses to start,
// naming the segment (corruption detected), or it recovers the
// whole-record prefix stopping before the damaged record — which only a
// flipped length prefix can bring about, by making the damage
// indistinguishable from a torn tail (those records were never promised
// past the tear). Recovering anything else — a skipped middle record, a
// mutated value — is the silent-loss bug class this sweep exists to catch.
func TestSharedLaneEveryOffsetCorruption(t *testing.T) { eachShape(t, 3, testEveryOffsetCorruption) }

func testEveryOffsetCorruption(t *testing.T, shards int) {
	const records = 9
	manifest, sg := walFixture(t, shards, records)
	for off := range sg.data {
		label := fmt.Sprintf("%s off %d", sg.name, off)
		k, start := recordAt(sg.ends, off)
		mut := bytes.Clone(sg.data)
		mut[off] ^= 0x5a
		kv := newReplayKV()
		w, err := Open(Options{Dir: damagedDir(t, manifest, sg, mut), Shards: shards}, kv.apply)
		if err != nil {
			if !strings.Contains(err.Error(), "refusing to start") || !strings.Contains(err.Error(), sg.name) {
				t.Fatalf("%s: unexpected refusal shape: %v", label, err)
			}
			continue
		}
		if int64(off)-start >= 4 {
			t.Fatalf("%s: a flip past record %d's length prefix was accepted", label, k)
		}
		want, last, n := foldDamaged(sg, k, shards)
		if rs := w.Stats().Recovery; rs.Replayed != n {
			t.Fatalf("%s (record %d): replayed %d records, want %d", label, k, rs.Replayed, n)
		}
		checkRecovered(t, label, w, kv, want, last)
		w.Close()
	}
}

// TestDamageBelowNewestSegmentRefuses: a torn tail is forgiven only on the
// newest segment. The same tear with a later segment behind it is lost
// acknowledged data, and must refuse with the segment named.
func TestDamageBelowNewestSegmentRefuses(t *testing.T) {
	eachShape(t, 3, testDamageBelowNewestSegmentRefuses)
}

func testDamageBelowNewestSegmentRefuses(t *testing.T, shards int) {
	manifest, sg := walFixture(t, shards, 12)
	torn := sg.data[:len(sg.data)-3]
	dir := damagedDir(t, manifest, sg, torn)
	if err := os.WriteFile(filepath.Join(dir, segName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Shards: shards}, noApply)
	if err == nil || !strings.Contains(err.Error(), sg.name+" unreadable (refusing to start)") {
		t.Fatalf("tear in a non-newest segment: Open = %v, want a refusal naming %s", err, sg.name)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, sg.name)); len(got) != len(torn) {
		t.Fatalf("the refused open truncated %s", sg.name)
	}
}

// TestRecoveryRefusesRecordsItCannotPlace: a record recovery cannot put on
// its shard's sequence refuses to start with the file named — a shard past
// the directory's count (the MANIFEST re-pinned lower), read from a
// checkpoint or from a segment, and a seq that skips one (Append's contract
// is consecutive seqs per shard).
func TestRecoveryRefusesRecordsItCannotPlace(t *testing.T) {
	four := [][2]uint64{{0, 1}, {1, 1}, {2, 1}, {3, 1}} // {shard, seq} appends
	for _, row := range []struct {
		name       string
		appends    [][2]uint64
		checkpoint bool
		pin        int
		cause      string
	}{
		{"segment", four, false, 2, "segment " + segName(1) + " carries shard 2 of 2"},
		{"checkpoint", four, true, 2, "checkpoint " + ckptName(2) + " carries shard 2 of 2"},
		{"gap", [][2]uint64{{0, 1}, {0, 3}}, false, 4, "segment " + segName(1) + " jumps shard 0 from seq 1 to 3"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			w := openLog(t, dir, 4, noApply)
			for _, a := range row.appends {
				if err := w.Append(int(a[0]), a[1], []tkvlog.Entry{{Key: a[0], Val: "v"}}).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if row.checkpoint {
				cut := func(sh int) ([]tkvlog.Entry, uint64, error) {
					return []tkvlog.Entry{{Key: uint64(sh), Val: "v"}}, 1, nil
				}
				if err := w.Checkpoint(cut, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			pin := fmt.Sprintf(`{"version":2,"shards":%d,"lane":"shared"}`+"\n", row.pin)
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(pin), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(Options{Dir: dir, Shards: row.pin}, noApply)
			if err == nil || !strings.Contains(err.Error(), row.cause+" (refusing to start)") {
				t.Fatalf("Open = %v, want a refusal naming %q", err, row.cause)
			}
		})
	}
}

// tornDir builds, on a fresh SimFS, a log directory whose records are all
// acked and whose newest segment ends in half of one more record, synced:
// part of a group's write that reached the disk before a crash. A
// checkpoint's tmp file, which a crash also leaves, lies beside it. It
// returns the acked records.
func tornDir(t *testing.T, shards int) (*SimFS, Options, map[uint64]string) {
	t.Helper()
	fs := &SimFS{}
	opts := Options{Dir: "wal", Shards: shards, FS: fs}
	w, err := Open(opts, noApply)
	if err != nil {
		t.Fatal(err)
	}
	acked := map[uint64]string{}
	for i := range 2 * shards {
		sh, key, val := i%shards, uint64(i), fmt.Sprintf("v%d", i)
		if err := w.Append(sh, w.LastSeq(sh)+1, []tkvlog.Entry{{Key: key, Val: val}}).Wait(); err != nil {
			t.Fatal(err)
		}
		acked[key] = val
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	torn := tkvlog.Record{Seq: w.LastSeq(0) + 1, Entries: []tkvlog.Entry{{Key: 1 << 40, Val: "torn"}}}
	b := torn.Append(nil)
	simWrite(t, fs, w.path(segName(w.rot)), string(b[:len(b)/2]), true)
	simWrite(t, fs, w.path(ckptName(w.rot)+".tmp"), "uncommitted", true)
	if err := fs.SyncDir(opts.Dir); err != nil {
		t.Fatal(err)
	}
	return fs, opts, acked
}

// reopenAfterCrash cuts the power with tear, opens the log again and
// checks that every acked record came back. It returns what recovery
// replayed.
func reopenAfterCrash(t *testing.T, label string, fs *SimFS, tear uint64, opts Options, acked map[uint64]string) (*WAL, map[uint64]string) {
	t.Helper()
	fs.PowerCut(tear)
	kv := newReplayKV()
	w, err := Open(opts, kv.apply)
	if err != nil {
		t.Fatalf("%s: recovery refused: %v", label, err)
	}
	for key, val := range acked {
		if got := kv.m[key]; got != val {
			w.Close()
			t.Fatalf("%s: acked record %x recovered as %q, want %q", label, key, got, val)
		}
	}
	return w, kv.m
}

// TestTornTailCutSurvivesPowerCut: recovery's cut of a torn tail is durable
// before the segment it opens next is. Open a directory whose newest segment
// ends in half a record, ack one append on the fresh segment, and cut the
// power: the tail must not come back behind the fresh segment, where the
// next Open would refuse it as damage below the newest segment.
func TestTornTailCutSurvivesPowerCut(t *testing.T) {
	fs, opts, acked := tornDir(t, 1)
	w, err := Open(opts, noApply)
	if err != nil {
		t.Fatal(err)
	}
	const key = 1 << 41
	if err := w.Append(0, w.LastSeq(0)+1, []tkvlog.Entry{{Key: key, Val: "acked"}}).Wait(); err != nil {
		t.Fatal(err)
	}
	acked[key] = "acked"
	w.Abandon()
	w, _ = reopenAfterCrash(t, "after the power cut", fs, 0, opts, acked)
	w.Close()
}

// TestRecoveryEveryCrashPoint cuts the power at every FS operation of an
// Open that recovers a torn tail — the MANIFEST check, the tmp removal, the
// replay, the truncate and its fsync, the new segment, the directory fsync —
// and of one append after it, one run per crash point, as
// TestCheckpointEveryCrashPoint does for a checkpoint. The Open after the
// power cut must never refuse and must bring back every acked record, and a
// further Open, after a second power cut, must recover the same. The sweep
// ends with the first run that finishes before its crash point.
//
// It sweeps once per tear (SimFS.PowerCut): tear 0 drops every unsynced
// byte, the others keep a prefix of them, so a power cut between the
// append's write and its fsync leaves part of a record for recovery to
// cut. At least one run must do that.
func TestRecoveryEveryCrashPoint(t *testing.T) { eachShape(t, 3, testRecoveryEveryCrashPoint) }

func testRecoveryEveryCrashPoint(t *testing.T, shards int) {
	const tears = 8
	points, torn := 0, 0
	for tear := uint64(0); tear < tears; tear++ {
		k := int64(1)
		for {
			crashed, cut := crashRecoveryAt(t, shards, k, tear)
			if cut {
				torn++
			}
			if !crashed {
				break
			}
			k++
		}
		points += int(k - 1)
	}
	t.Logf("%d crash points over %d tears; %d recoveries cut a torn append", points, tears, torn)
	if torn == 0 {
		t.Fatalf("no recovery over %d tears cut a torn append: the power cuts tear nothing", tears)
	}
}

// crashRecoveryAt runs the sweep's scenario with the power cut at its kth FS
// operation and checks the two recoveries after it. It reports whether the
// crash point came, and whether the first recovery cut a torn append: bytes
// of a tail the Open before the crash had already cut.
func crashRecoveryAt(t *testing.T, shards int, k int64, tear uint64) (crashed, cut bool) {
	t.Helper()
	label := fmt.Sprintf("tear %d, crash at operation %d", tear, k)
	fs, opts, acked := tornDir(t, shards)
	fs.FailAll(k, errPowerCut)
	w, err := Open(opts, noApply)
	crashed = err != nil
	if crashed && !errors.Is(err, errPowerCut) {
		t.Fatalf("%s: Open failed without the power cut: %v", label, err)
	}
	if !crashed {
		const key = 1 << 41
		if err := w.Append(0, w.LastSeq(0)+1, []tkvlog.Entry{{Key: key, Val: "acked"}}).Wait(); err == nil {
			acked[key] = "acked"
		}
		crashed = errors.Is(w.Err(), errPowerCut)
		w.Abandon()
	}
	w, first := reopenAfterCrash(t, label, fs, tear, opts, acked)
	cut = err == nil && w.Stats().Recovery.TruncatedBytes > 0
	w.Abandon()
	w, again := reopenAfterCrash(t, label+", reopened", fs, tear, opts, acked)
	w.Close()
	if !maps.Equal(first, again) {
		t.Fatalf("%s: a further open recovered %v, the first %v", label, again, first)
	}
	return crashed, cut
}
