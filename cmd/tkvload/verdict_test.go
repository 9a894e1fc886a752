package main

import (
	"strconv"
	"strings"
	"testing"
)

// history is a hand-built run: acks[p] lists the (key, value) pairs acked in
// phase p, final the counters' values in the closing snapshot.
func history(phases []string, acks [][][2]int64, final ...uint64) (*ledger, map[uint64]string) {
	l := newLedger(len(final), phases...)
	for p, pairs := range acks {
		for _, a := range pairs {
			l.record(uint64(a[0]), a[1], p)
		}
	}
	snap := make(map[uint64]string, len(final))
	for k, v := range final {
		snap[uint64(k)] = strconv.FormatUint(v, 10)
	}
	return l, snap
}

var crashPhases = []string{"before kill 1", "after kill 1"}

func TestVerdictCleanHistoryPasses(t *testing.T) {
	l, snap := history(crashPhases, [][][2]int64{
		{{0, 1}, {1, 1}, {0, 2}},
		{{0, 3}, {1, 2}},
	}, 3, 2)
	for _, drill := range []bool{true, false} {
		acked, final, err := l.verdict(snap, drill)
		if err != nil || acked != 5 || final != 5 {
			t.Errorf("drill=%v: acked=%d final=%d err=%v, want 5, 5, nil", drill, acked, final, err)
		}
	}
}

// TestVerdictNamesMaskedLoss: key 0's ack of 3 is missing from its final
// value, and an unacknowledged increment landed on key 1. The counters sum
// to the acked count, so the rule the drills judged by before, sum >= acked,
// passes this history; the verdict names the lost write.
func TestVerdictNamesMaskedLoss(t *testing.T) {
	l, snap := history(crashPhases, [][][2]int64{
		{{0, 1}, {0, 2}, {1, 1}},
		{{0, 3}},
	}, 2, 2)
	acked, final, err := l.verdict(snap, true)
	if final < acked {
		t.Fatalf("sum %d < acked %d: the history does not mask its loss", final, acked)
	}
	if err == nil {
		t.Fatal("a lost acknowledged write passed")
	}
	for _, want := range []string{"LOST UPDATES: 1 acknowledged increment(s) lost", "key 0's value 3 was acked after kill 1, but the key ends at 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("verdict %q does not say %q", err, want)
		}
	}
}

// TestVerdictNamesBothSidesOfAKill: the server lost key 5's increment to 12
// in the kill, and the next incarnation handed 12 out again.
func TestVerdictNamesBothSidesOfAKill(t *testing.T) {
	final := make([]uint64, 6)
	final[5] = 12
	var before, after [][2]int64
	for v := int64(1); v <= 12; v++ {
		before = append(before, [2]int64{5, v})
	}
	after = append(after, [2]int64{5, 12})
	l, snap := history(crashPhases, [][][2]int64{before, after}, final...)
	_, _, err := l.verdict(snap, true)
	if err == nil || !strings.Contains(err.Error(), "key 5's value 12 was acked before kill 1 and again after kill 1") {
		t.Fatalf("verdict = %v, want key 5's value 12 named on both sides of kill 1", err)
	}
}

// TestVerdictLandedUnacked: an increment whose ack never arrived (key 1 ends
// one above its acks) is no loss. A drill, whose kills and quits eat acks,
// passes it; load + verify, where every reply arrives, fails on it.
func TestVerdictLandedUnacked(t *testing.T) {
	l, snap := history([]string{"during the run"}, [][][2]int64{{{0, 1}, {1, 1}}}, 1, 2)
	if acked, final, err := l.verdict(snap, true); err != nil || final-acked != 1 {
		t.Errorf("drill: acked=%d final=%d err=%v, want one landed and no error", acked, final, err)
	}
	if _, _, err := l.verdict(snap, false); err == nil || !strings.Contains(err.Error(), "uncounted increments") {
		t.Errorf("load + verify: err = %v, want uncounted increments", err)
	}
}

// TestVerdictImpossibleAck: an ack below the seed's first increment is a
// violation too, and does not grow a bitset.
func TestVerdictImpossibleAck(t *testing.T) {
	l, snap := history([]string{"during the run"}, [][][2]int64{{{0, 1}, {0, -1 << 40}}}, 1)
	if _, _, err := l.verdict(snap, true); err == nil || !strings.Contains(err.Error(), "with value -1099511627776") {
		t.Fatalf("verdict = %v, want the impossible value named", err)
	}
}
