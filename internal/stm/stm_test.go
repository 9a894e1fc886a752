package stm

import (
	"testing"
	"testing/quick"
)

func TestOrecEncoding(t *testing.T) {
	for _, owner := range []int{0, 1, 7, 1023} {
		w := lockWord(owner)
		if !IsLocked(w) {
			t.Fatalf("lockWord(%d) not locked", owner)
		}
		if got := OwnerOf(w); got != owner {
			t.Fatalf("OwnerOf(lockWord(%d)) = %d", owner, got)
		}
	}
	for _, ver := range []uint64{0, 1, 42, 1 << 40} {
		w := versionWord(ver)
		if IsLocked(w) {
			t.Fatalf("versionWord(%d) reads as locked", ver)
		}
		if got := VersionOf(w); got != ver {
			t.Fatalf("VersionOf(versionWord(%d)) = %d", ver, got)
		}
	}
}

func TestOrecEncodingProperty(t *testing.T) {
	roundTrip := func(owner uint16, ver uint32) bool {
		lw := lockWord(int(owner))
		vw := versionWord(uint64(ver))
		return IsLocked(lw) && !IsLocked(vw) &&
			OwnerOf(lw) == int(owner) && VersionOf(vw) == uint64(ver) && lw != vw
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarLockCycle(t *testing.T) {
	v := NewVar(1)
	m := v.Meta()
	if IsLocked(m) {
		t.Fatal("fresh var locked")
	}
	if !v.TryLock(m, 3) {
		t.Fatal("TryLock failed on quiescent var")
	}
	if !v.LockedBy(3) || v.LockedByOther(4) == false || v.LockedByOther(3) {
		t.Fatal("ownership queries wrong while locked")
	}
	if v.TryLock(v.Meta(), 4) {
		t.Fatal("TryLock succeeded on locked var")
	}
	v.Unlock(9)
	if IsLocked(v.Meta()) || VersionOf(v.Meta()) != 9 {
		t.Fatalf("unlock left meta=%d", v.Meta())
	}
	m = v.Meta()
	if !v.TryLock(m, 5) {
		t.Fatal("relock failed")
	}
	v.UnlockRestore(m)
	if VersionOf(v.Meta()) != 9 {
		t.Fatal("UnlockRestore lost version")
	}
}

// TestUnlockRestoreBumpsIncarnation pins the anti-ABA property of the abort
// path: restoring the pre-lock orec word must preserve the version and the
// unlocked state but never reproduce the identical word, so a SnapshotPtr
// sampler racing with a write-through engine's lock/store/abort cycle always
// observes the interleaving and retries (instead of returning the
// speculative in-place value of an aborted transaction as consistent).
func TestUnlockRestoreBumpsIncarnation(t *testing.T) {
	v := NewVar(1)
	m0 := v.Meta()
	seen := map[uint64]bool{}
	m := m0
	for cycle := 0; cycle < 1<<incBits; cycle++ {
		if seen[m] {
			t.Fatalf("orec word %#x repeated after %d abort cycles (< %d incarnations)", m, cycle, 1<<incBits)
		}
		seen[m] = true
		if IsLocked(m) || VersionOf(m) != VersionOf(m0) {
			t.Fatalf("abort cycle %d corrupted the word: meta=%#x", cycle, m)
		}
		if !v.TryLock(m, 3) {
			t.Fatalf("relock failed at cycle %d", cycle)
		}
		v.UnlockRestore(m)
		m = v.Meta()
	}
	// The field is incBits wide: after 2^incBits cycles it wraps to m0.
	if m != m0 {
		t.Fatalf("incarnation did not wrap to the original word: %#x vs %#x", m, m0)
	}
}

func TestVarIDsUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		v := NewVar(nil)
		if seen[v.ID()] {
			t.Fatalf("duplicate var ID %d", v.ID())
		}
		seen[v.ID()] = true
	}
}

// TestInitRefInPlace: TVars laid out by value in one object are each a
// variable of their own, holding the cell they were given.
func TestInitRefInPlace(t *testing.T) {
	var node struct {
		a, b TVar[int]
	}
	x, y := 7, 8
	node.a.InitRef(&x)
	node.b.InitRef(&y)
	if node.a.ID() == 0 || node.a.ID() == node.b.ID() {
		t.Fatalf("ids %d and %d", node.a.ID(), node.b.ID())
	}
	if pa, pb := (*int)(node.a.Word().LoadPtr()), (*int)(node.b.Word().LoadPtr()); pa != &x || pb != &y {
		t.Fatalf("cells %p and %p, want %p and %p", pa, pb, &x, &y)
	}
	if m := node.a.Word().Meta(); IsLocked(m) || VersionOf(m) != 0 {
		t.Fatalf("fresh var has meta %#x", m)
	}
}

func TestSnapshotConsistency(t *testing.T) {
	v := NewVar(10)
	val, meta := v.Snapshot()
	if val.(int) != 10 || IsLocked(meta) {
		t.Fatalf("snapshot = (%v, %d)", val, meta)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	if c.Tick() != 1 || c.Tick() != 2 || c.Now() != 2 {
		t.Fatal("clock does not advance monotonically")
	}
}

func TestRegistry(t *testing.T) {
	var r Registry
	a := r.Add("a")
	b := r.Add("b")
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("IDs = %d,%d", a.ID, b.ID)
	}
	if r.Get(0) != a || r.Get(1) != b || r.Get(2) != nil || r.Get(-1) != nil {
		t.Fatal("Get lookup broken")
	}
	if r.Len() != 2 || len(r.All()) != 2 {
		t.Fatal("Len/All broken")
	}
}

func TestAggregateStats(t *testing.T) {
	var r Registry
	a, b := r.Add("a"), r.Add("b")
	a.Commits.Add(3)
	a.Aborts.Add(1)
	b.Commits.Add(2)
	b.UserAborts.Add(4)
	s := AggregateStats(r.All())
	if s.Commits != 5 || s.Aborts != 1 || s.UserAborts != 4 {
		t.Fatalf("aggregate = %+v", s)
	}
	want := 5.0 / 6.0
	if got := s.CommitRate(); got != want {
		t.Fatalf("commit rate = %f, want %f", got, want)
	}
	if (Stats{}).CommitRate() != 1 {
		t.Fatal("empty stats commit rate should be 1")
	}
}

func TestWaitPolicyString(t *testing.T) {
	if WaitPreemptive.String() != "preemptive" || WaitBusy.String() != "busy" {
		t.Fatal("WaitPolicy.String wrong")
	}
	if WaitPolicy(0).String() != "unknown" {
		t.Fatal("zero policy should be unknown")
	}
}

func TestSpinWhileLocked(t *testing.T) {
	v := NewVar(0)
	if !WaitPreemptive.SpinWhileLocked(v, 1, 10) {
		t.Fatal("unlocked var should not need waiting")
	}
	m := v.Meta()
	v.TryLock(m, 2)
	if WaitBusy.SpinWhileLocked(v, 1, 5) {
		t.Fatal("lock held by other: spin must time out")
	}
	if !WaitBusy.SpinWhileLocked(v, 2, 5) {
		t.Fatal("own lock must not block")
	}
	v.Unlock(1)
	if !WaitPreemptive.SpinWhileLocked(v, 1, 5) {
		t.Fatal("released lock should succeed")
	}
}

func TestBackoffDoesNotHang(t *testing.T) {
	for _, p := range []WaitPolicy{WaitPreemptive, WaitBusy} {
		for attempt := 0; attempt < 12; attempt++ {
			p.Backoff(attempt) // must return promptly even for large attempts
		}
	}
}
