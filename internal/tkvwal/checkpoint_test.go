package tkvwal

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// TestCheckpointEveryCrashPoint cuts the power at every FS operation of a
// checkpoint — its rotation, its file, its GC — and of the appends around
// it, one run per crash point: from the crash point on every operation
// fails, then the log is abandoned, PowerCut keeps what was durable, and
// the log is reopened over what is left. Recovery must never refuse, every
// record acked before the crash must come back, and so must a checkpoint
// that returned nil. The sweep ends with the first run that finishes
// before its crash point.
func TestCheckpointEveryCrashPoint(t *testing.T) { eachShape(t, 3, testCheckpointEveryCrashPoint) }

func testCheckpointEveryCrashPoint(t *testing.T, shards int) {
	k := int64(1)
	for crashCheckpointAt(t, shards, k) {
		k++
	}
	t.Logf("%d crash points", k-1)
}

var errPowerCut = errors.New("power cut")

// restoredKey is the key a checkpoint carries and no record logged, as a
// restore's does: only the checkpoint can bring it back.
const restoredKey = 1 << 63

// crashCheckpointAt runs the sweep's scenario with the power cut at its
// kth FS operation and checks the recovery. It reports whether the crash
// point came.
func crashCheckpointAt(t *testing.T, shards int, k int64) bool {
	t.Helper()
	fs := &SimFS{}
	opts := Options{Dir: "wal", Shards: shards, FS: fs}
	w, err := Open(opts, noApply)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]uint64, shards)
	model := make([]map[uint64]string, shards) // every record appended, acked or not: what a cut sees
	for sh := range model {
		model[sh] = map[uint64]string{}
	}
	acked := map[uint64]string{}
	crashed := false
	restored := "" // the restored key's value in the checkpoint being written
	put := func(sh int) {
		seq[sh]++
		key := uint64(sh)<<32 | seq[sh]
		val := fmt.Sprintf("v%d.%d", sh, seq[sh])
		model[sh][key] = val
		if err := w.Append(sh, seq[sh], []tkvlog.Entry{{Key: key, Val: val}}).Wait(); err != nil {
			crashed = crashed || errors.Is(err, errPowerCut)
			return
		}
		acked[key] = val
	}
	// cut snapshots the model. Shard 0's cut carries the restored key, and
	// appends to the last shard while the checkpoint is being written: that
	// record rides the fresh segment, before the checkpoint commits.
	cut := func(sh int) ([]tkvlog.Entry, uint64, error) {
		var entries []tkvlog.Entry
		for _, key := range slices.Sorted(maps.Keys(model[sh])) {
			entries = append(entries, tkvlog.Entry{Key: key, Val: model[sh][key]})
		}
		at := seq[sh]
		if sh == 0 {
			entries = append(entries, tkvlog.Entry{Key: restoredKey, Val: restored})
			put(shards - 1)
		}
		return entries, at, nil
	}
	checkpoint := func(value string) error {
		restored = value
		err := w.Checkpoint(cut, true)
		crashed = crashed || errors.Is(err, errPowerCut)
		return err
	}

	// Before the crash can come: records in the first segment, a first
	// checkpoint for the GC to supersede, records in the second segment.
	for sh := range shards {
		put(sh)
	}
	if err := checkpoint("first"); err != nil {
		t.Fatal(err)
	}
	for sh := range shards {
		put(sh)
	}
	fs.FailAll(k, errPowerCut)
	for sh := range shards {
		put(sh)
	}
	ckptErr := checkpoint("second")
	for sh := range shards {
		put(sh)
	}
	crashed = crashed || errors.Is(w.Err(), errPowerCut)
	w.Abandon()
	fs.PowerCut(0)

	kv := newReplayKV()
	w2, err := Open(opts, kv.apply)
	if err != nil {
		t.Fatalf("crash at operation %d: recovery refused: %v", k, err)
	}
	defer w2.Close()
	for _, key := range slices.Sorted(maps.Keys(acked)) {
		if got := kv.m[key]; got != acked[key] {
			t.Fatalf("crash at operation %d: acked record %x recovered as %q, want %q", k, key, got, acked[key])
		}
	}
	if got := kv.m[restoredKey]; ckptErr == nil && got != "second" {
		t.Fatalf("crash at operation %d: the checkpoint returned nil, and its restored key came back as %q", k, got)
	}
	return crashed
}
