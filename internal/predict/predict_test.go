package predict

import (
	"math/rand"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
)

func makeVars(n int) []*stm.Var {
	vs := make([]*stm.Var, n)
	for i := range vs {
		vs[i] = stm.NewVar(i)
	}
	return vs
}

// commitTx simulates one committed transaction reading the given vars.
func commitTx(p *Predictor, reads []*stm.Var, writes []*stm.Var) {
	for _, v := range reads {
		p.OnRead(v)
	}
	p.OnCommit(stm.MakeWriteSet(writes...))
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TrackAccuracy = true
	return cfg
}

func TestReadPredictionAfterRepeats(t *testing.T) {
	p := New(testConfig())
	vs := makeVars(8)
	// With confidence weights {3,2,1} and threshold 3, an address seen in
	// the immediately previous transaction (weight 3) qualifies. The
	// prediction becomes active for the transaction after the one that
	// rebuilt it, so three repeats guarantee a non-empty active set.
	commitTx(p, vs, nil)
	commitTx(p, vs, nil)
	if p.PredictedReadSetSize() == 0 {
		t.Fatal("no active read prediction after two identical transactions")
	}
}

func TestReadPredictionNeedsHistory(t *testing.T) {
	p := New(testConfig())
	vs := makeVars(4)
	commitTx(p, vs, nil)
	// After one transaction the built prediction could not have used any
	// history, so the active set (for the second transaction) is empty.
	if p.PredictedReadSetSize() != 0 {
		t.Fatalf("active prediction %d after a single transaction", p.PredictedReadSetSize())
	}
}

func TestReadAccuracyPerfectOnRepeatingWorkload(t *testing.T) {
	p := New(testConfig())
	vs := makeVars(16)
	for i := 0; i < 20; i++ {
		commitTx(p, vs, nil)
	}
	st := p.Stats()
	if st.ReadPredicted == 0 {
		t.Fatal("no read predictions made on repeating workload")
	}
	if acc := st.ReadAccuracy(); acc < 0.99 {
		t.Fatalf("read accuracy = %f on perfectly repeating workload", acc)
	}
}

func TestReadAccuracyDropsWhenWorkloadShifts(t *testing.T) {
	p := New(testConfig())
	a := makeVars(16)
	b := makeVars(16)
	for i := 0; i < 10; i++ {
		commitTx(p, a, nil)
	}
	// Shift to a disjoint working set: predictions built on A miss.
	for i := 0; i < 10; i++ {
		commitTx(p, b, nil)
	}
	st := p.Stats()
	if st.ReadHits == st.ReadPredicted {
		t.Fatal("expected some misses after the working set shifted")
	}
}

func TestWritePredictionAcrossAbort(t *testing.T) {
	p := New(testConfig())
	ws := makeVars(4)
	p.OnAbort(stm.MakeWriteSet(ws...)) // aborted attempt wrote ws
	if p.PredictedWriteSetSize() != len(ws) {
		t.Fatalf("predicted write set = %d, want %d", p.PredictedWriteSetSize(), len(ws))
	}
	// The restart commits with the same write set: all hits.
	p.OnCommit(stm.MakeWriteSet(ws...))
	st := p.Stats()
	if st.WritePredicted != uint64(len(ws)) || st.WriteHits != uint64(len(ws)) {
		t.Fatalf("write accuracy counters = %d/%d", st.WriteHits, st.WritePredicted)
	}
	if p.PredictedWriteSetSize() != 0 {
		t.Fatal("write prediction must be retired at commit")
	}
}

func TestWritePredictionMiss(t *testing.T) {
	p := New(testConfig())
	ws := makeVars(2)
	other := makeVars(2)
	p.OnAbort(stm.MakeWriteSet(ws...))
	p.OnCommit(stm.MakeWriteSet(other...)) // restart wrote something else entirely
	st := p.Stats()
	if st.WriteHits != 0 || st.WritePredicted != 2 {
		t.Fatalf("counters = %d/%d, want 0/2", st.WriteHits, st.WritePredicted)
	}
	if st.WriteAccuracy() != 0 {
		t.Fatalf("accuracy = %f, want 0", st.WriteAccuracy())
	}
}

func TestPredictedConflictReadSet(t *testing.T) {
	p := New(testConfig())
	vs := makeVars(4)
	commitTx(p, vs, nil)
	commitTx(p, vs, nil)
	if p.PredictedReadSetSize() == 0 {
		t.Fatal("need an active prediction for this test")
	}
	// No one is writing: no predicted conflict.
	if p.PredictedConflict(0, true) {
		t.Fatal("phantom conflict with no writers")
	}
	// Lock one predicted var as thread 5: now thread 0 sees a conflict,
	// but only when the read-set check is enabled.
	m := vs[0].Meta()
	if !vs[0].TryLock(m, 5) {
		t.Fatal("lock failed")
	}
	defer vs[0].Unlock(1)
	if !p.PredictedConflict(0, true) {
		t.Fatal("missed predicted read conflict")
	}
	if p.PredictedConflict(0, false) {
		t.Fatal("read check ran despite checkReads=false and empty write prediction")
	}
	// The lock owner itself must not see a conflict.
	if p2 := p; p2.PredictedConflict(5, true) {
		t.Fatal("owner predicted conflict with itself")
	}
}

func TestPredictedConflictWriteSet(t *testing.T) {
	p := New(testConfig())
	ws := makeVars(2)
	p.OnAbort(stm.MakeWriteSet(ws...))
	m := ws[1].Meta()
	if !ws[1].TryLock(m, 9) {
		t.Fatal("lock failed")
	}
	defer ws[1].Unlock(1)
	// Write-set check runs regardless of checkReads.
	if !p.PredictedConflict(0, false) {
		t.Fatal("missed predicted write conflict")
	}
}

func TestAccuracyStatsMerge(t *testing.T) {
	a := AccuracyStats{ReadPredicted: 10, ReadHits: 7, WritePredicted: 4, WriteHits: 2}
	b := AccuracyStats{ReadPredicted: 10, ReadHits: 3, WritePredicted: 6, WriteHits: 4}
	a.Merge(b)
	if a.ReadPredicted != 20 || a.ReadHits != 10 || a.WritePredicted != 10 || a.WriteHits != 6 {
		t.Fatalf("merge = %+v", a)
	}
	if a.ReadAccuracy() != 0.5 || a.WriteAccuracy() != 0.6 {
		t.Fatalf("accuracies = %f/%f", a.ReadAccuracy(), a.WriteAccuracy())
	}
	var empty AccuracyStats
	if empty.ReadAccuracy() != 1 || empty.WriteAccuracy() != 1 {
		t.Fatal("empty accuracy should be 1")
	}
}

func TestConfidenceThresholdGates(t *testing.T) {
	cfg := testConfig()
	cfg.ConfidenceThreshold = 100 // unreachable
	p := New(cfg)
	vs := makeVars(8)
	for i := 0; i < 10; i++ {
		commitTx(p, vs, nil)
	}
	if p.PredictedReadSetSize() != 0 {
		t.Fatal("prediction made despite unreachable confidence threshold")
	}
}

// TestAccuracyIndependentOfVarPlacement: a Var's identity is its address,
// so the numbers the Bloom filters hash are whatever the allocator hands out
// — multiples of 16, and consecutive ones for vars laid out by value in a
// node or a table. The same access pattern must score the same whichever
// vars carry it: separate objects, or neighbours in one slice. (The filters
// are made large enough that a chance false positive, which would depend on
// the addresses of the run, does not decide the test; a hash that failed to
// spread aligned, adjacent addresses would still collide in them.)
func TestAccuracyIndependentOfVarPlacement(t *testing.T) {
	const pool = 256
	scattered := makeVars(pool)
	table := make([]stm.TVar[int], pool)
	adjacent := make([]*stm.Var, pool)
	for i := range table {
		adjacent[i] = table[i].Word()
	}

	run := func(vars []*stm.Var) AccuracyStats {
		cfg := testConfig()
		cfg.FilterBits = 1 << 16
		p := New(cfg)
		rng := rand.New(rand.NewSource(7))
		pick := func(idx []int) []*stm.Var {
			vs := make([]*stm.Var, len(idx))
			for i, j := range idx {
				vs[i] = vars[j%pool]
			}
			return vs
		}
		for tx := 0; tx < 200; tx++ {
			// A window that slides by one every other transaction, two
			// reads from anywhere, two writes near the window.
			base := tx / 2
			reads := pick([]int{base, base + 1, base + 2, base + 3, base + 4, base + 5, rng.Intn(pool), rng.Intn(pool)})
			writes := pick([]int{base + rng.Intn(3), base + 3 + rng.Intn(3)})
			if tx%5 == 4 {
				// An aborted first attempt: its write set predicts the
				// restart's, which repeats one of the two.
				for _, v := range reads {
					p.OnRead(v)
				}
				p.OnAbort(stm.MakeWriteSet(writes...))
				writes[1] = vars[(base+7)%pool]
			}
			commitTx(p, reads, writes)
		}
		return p.Stats()
	}

	a, b := run(scattered), run(adjacent)
	if a != b {
		t.Fatalf("same pattern, different scores:\n  separate objects %+v\n  one slice        %+v", a, b)
	}
	if a.ReadPredicted == 0 || a.ReadHits == 0 || a.ReadHits == a.ReadPredicted || a.WritePredicted == 0 || a.WriteHits == 0 || a.WriteHits == a.WritePredicted {
		t.Fatalf("the pattern should both hit and miss on reads and writes: %+v", a)
	}
}
