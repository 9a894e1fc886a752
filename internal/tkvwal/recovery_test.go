package tkvwal

// Recovery sweeps, in both layouts: every whole-record prefix of a
// lane's newest segment recovers to exactly that prefix's fold while
// the other lanes recover complete (every-cut), and no flipped byte is
// ever read as anything but a refusal or a torn tail at the damaged
// record (every-offset) — the tkvlog reader suites, lifted to a log of
// several lanes.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// fixSeg is one segment of a fixture log: its bytes, each record's end
// offset, and the decoded records (for prefix folds).
type fixSeg struct {
	name string
	data []byte
	ends []int64
	recs []tkvlog.Record
}

// walFixture writes a deterministic log, records dealt round-robin over
// the shards, and returns its MANIFEST and segments: one interleaving
// every shard in the shared layout, one per shard in the per-shard one.
func walFixture(t *testing.T, mode Mode, shards, records int) (manifest []byte, segs []fixSeg) {
	t.Helper()
	dir := t.TempDir()
	w := openMode(t, dir, mode, shards, noApply)
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
	total := 0
	for _, name := range listFiles(t, dir, segFmt) {
		sg := fixSeg{name: name}
		if sg.data, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		r := tkvlog.NewReader(bytes.NewReader(sg.data))
		for {
			var rec tkvlog.Record
			if err := r.Next(&rec); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("fixture segment %s unreadable: %v", name, err)
			}
			sg.recs = append(sg.recs, rec)
			sg.ends = append(sg.ends, r.Offset())
		}
		total += len(sg.recs)
		segs = append(segs, sg)
	}
	if len(segs) != w.Lanes() || total != records {
		t.Fatalf("fixture: %d segments holding %d records, want %d and %d", len(segs), total, w.Lanes(), records)
	}
	return manifest, segs
}

// damagedDir materializes the fixture with segment i's bytes replaced.
func damagedDir(t *testing.T, manifest []byte, segs []fixSeg, i int, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(manifestName, manifest)
	for j, sg := range segs {
		if j == i {
			write(sg.name, data)
		} else {
			write(sg.name, sg.data)
		}
	}
	return dir
}

// foldDamaged is what recovery must land on when segment i keeps only
// its first k records and every other segment is intact: the map, the
// per-shard last seqs, and the record count.
func foldDamaged(segs []fixSeg, i, k, shards int) (m map[uint64]string, last []uint64, n uint64) {
	m, last = map[uint64]string{}, make([]uint64, shards)
	for j, sg := range segs {
		recs := sg.recs
		if j == i {
			recs = recs[:k]
		}
		for _, rec := range recs {
			for _, e := range rec.Entries {
				m[e.Key] = e.Val
			}
			last[rec.Shard] = rec.Seq
			n++
		}
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

// TestSharedLaneEveryCutTruncation truncates each lane's newest segment
// at every byte length while the other lanes stay intact: recovery must
// keep exactly the whole-record prefix of the cut lane and all of the
// others, truncate the tear and report it, leave every shard's watermark
// at its prefix seq — and the lane must keep going from there, what it
// appends next being read back by the boot after.
func TestSharedLaneEveryCutTruncation(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		const shards, records = 3, 9
		manifest, segs := walFixture(t, mode, shards, records)
		for i, sg := range segs {
			for cut := 0; cut <= len(sg.data); cut++ {
				label := fmt.Sprintf("%s cut %d", sg.name, cut)
				k, start := recordAt(sg.ends, cut)
				dir := damagedDir(t, manifest, segs, i, sg.data[:cut])
				kv := newReplayKV()
				w, err := Open(Options{Dir: dir, Shards: shards, Mode: mode}, kv.apply)
				if err != nil {
					t.Fatalf("%s: recovery refused: %v", label, err)
				}
				want, last, n := foldDamaged(segs, i, k, shards)
				if rs := w.Stats().Recovery; rs.Replayed != n || rs.TruncatedBytes != int64(cut)-start {
					t.Fatalf("%s: replayed %d truncated %d, want %d and %d", label, rs.Replayed, rs.TruncatedBytes, n, int64(cut)-start)
				}
				checkRecovered(t, label, w, kv, want, last)
				if int64(cut)-start != 1 {
					w.Close()
					continue
				}
				// Once per torn record: the lane keeps going (lane i owns
				// shard i in both layouts), and the next boot reads it all.
				if err := w.Append(i, last[i]+1, []tkvlog.Entry{{Key: 1 << 40, Val: "again"}}).Wait(); err != nil {
					t.Fatalf("%s: append after recovery: %v", label, err)
				}
				w.Close()
				want[1<<40], last[i] = "again", last[i]+1
				kv = newReplayKV()
				w = openMode(t, dir, mode, shards, kv.apply)
				checkRecovered(t, label+", reopened", w, kv, want, last)
				w.Close()
			}
		}
	})
}

// TestSharedLaneEveryOffsetCorruption flips every byte of each lane's
// newest segment in turn. The honest outcomes are exactly two: recovery
// refuses to start, naming the segment (corruption detected), or it
// recovers that lane's whole-record prefix stopping before the damaged
// record, and the other lanes complete — which only a flipped length
// prefix can bring about, by making the damage indistinguishable from a
// torn tail (those records were never promised past the tear).
// Recovering anything else — a skipped middle record, a mutated value —
// is the silent-loss bug class this sweep exists to catch.
func TestSharedLaneEveryOffsetCorruption(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		const shards, records = 3, 9
		manifest, segs := walFixture(t, mode, shards, records)
		for i, sg := range segs {
			for off := range sg.data {
				label := fmt.Sprintf("%s off %d", sg.name, off)
				k, start := recordAt(sg.ends, off)
				mut := bytes.Clone(sg.data)
				mut[off] ^= 0x5a
				kv := newReplayKV()
				w, err := Open(Options{Dir: damagedDir(t, manifest, segs, i, mut), Shards: shards, Mode: mode}, kv.apply)
				if err != nil {
					if !strings.Contains(err.Error(), "refusing to start") || !strings.Contains(err.Error(), sg.name) {
						t.Fatalf("%s: unexpected refusal shape: %v", label, err)
					}
					continue
				}
				if int64(off)-start >= 4 {
					t.Fatalf("%s: a flip past record %d's length prefix was accepted", label, k)
				}
				want, last, n := foldDamaged(segs, i, k, shards)
				if rs := w.Stats().Recovery; rs.Replayed != n {
					t.Fatalf("%s (record %d): replayed %d records, want %d", label, k, rs.Replayed, n)
				}
				checkRecovered(t, label, w, kv, want, last)
				w.Close()
			}
		}
	})
}

// TestDamageBelowNewestSegmentRefuses: a torn tail is forgiven only on a
// lane's newest segment. The same tear with a later segment of that lane
// behind it is lost acknowledged data, and must refuse with the segment
// named — whatever the other lanes look like.
func TestDamageBelowNewestSegmentRefuses(t *testing.T) {
	eachMode(t, func(t *testing.T, mode Mode) {
		const shards = 3
		manifest, segs := walFixture(t, mode, shards, 12)
		i := len(segs) - 1
		torn := segs[i].data[:len(segs[i].data)-3]
		dir := damagedDir(t, manifest, segs, i, torn)
		if err := os.WriteFile(filepath.Join(dir, laneSegName(i, 2)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Dir: dir, Shards: shards, Mode: mode}, noApply)
		if err == nil || !strings.Contains(err.Error(), segs[i].name+" unreadable (refusing to start)") {
			t.Fatalf("tear in a non-newest segment: Open = %v, want a refusal naming %s", err, segs[i].name)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, segs[i].name)); len(got) != len(torn) {
			t.Fatalf("the refused open truncated %s", segs[i].name)
		}
	})
}
