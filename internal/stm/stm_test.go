package stm

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
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
	v := NewT(1).Word()
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
	v := NewT(1).Word()
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

// TestVarIDsUnique states what a Var's identity is now that it is the Var's
// address: non-zero, distinct among Vars that are alive together — two
// TVars laid out by value in one object included — and stable for a Var's
// lifetime across a collection. It is not unique across lifetimes: a freed
// Var's address may serve a later one.
func TestVarIDsUnique(t *testing.T) {
	type pair struct{ a, b TVar[int] }
	const n = 1000
	vars := make([]*Var, 0, n+2)
	for i := 0; i < n; i++ {
		vars = append(vars, NewT(0).Word())
	}
	node := new(pair)
	vars = append(vars, node.a.Word(), node.b.Word())
	ids := make([]uint64, len(vars))
	seen := make(map[uint64]bool, len(vars))
	for i, v := range vars {
		ids[i] = v.ID()
		if ids[i] == 0 || seen[ids[i]] {
			t.Fatalf("var %d of %d alive together has identity %#x: zero or a duplicate", i, len(vars), ids[i])
		}
		seen[ids[i]] = true
	}
	runtime.GC()
	runtime.GC()
	for i, v := range vars {
		if got := v.ID(); got != ids[i] {
			t.Fatalf("var %d changed identity across a collection: %#x, was %#x", i, got, ids[i])
		}
	}
	runtime.KeepAlive(node)
}

// TestVarSize holds the engine word at two machine words: an orec and a
// value pointer, nothing else. rbNode (80 B), hmNode (32 B) and the 16-byte
// bucket slot are multiples of it and have their own exact gates in stmds.
func TestVarSize(t *testing.T) {
	if got := unsafe.Sizeof(Var{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Var{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(TVar[string]{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(TVar[string]{}) = %d, want 16", got)
	}
}

// TestROStoppedVarNeverOutlivesAttempt: the Var a failed ReadTRO leaves on
// the descriptor is gone before the next body runs and after every kind of
// exit, so the retry path can only ever look at the Var of the attempt it
// is retrying.
func TestROStoppedVarNeverOutlivesAttempt(t *testing.T) {
	c := NewCore(CoreOptions{})
	self, other := c.Register("self"), c.Register("other")
	var tx ROTx
	mine, theirs, free := NewT(1), NewT(2), NewT(3)
	if !mine.Word().TryLock(mine.Word().Meta(), self.ID) || !theirs.Word().TryLock(theirs.Word().Meta(), other.ID) {
		t.Fatal("could not lock the fixtures")
	}
	stopAt := func(v *TVar[int]) func(*ROTx) error {
		return func(tx *ROTx) error {
			if tx.stopped != nil {
				t.Errorf("attempt began with a stopped var %p", tx.stopped)
			}
			_, err := ReadTRO(tx, v)
			if err == nil || tx.stopped != v.Word() {
				t.Errorf("read of a locked var: err = %v, stopped = %p, want ErrConflict and %p", err, tx.stopped, v.Word())
			}
			return err
		}
	}

	// Exit by a user error on the third attempt, each stopped at theirs:
	// the two before it were retried as conflicts.
	errUser := errors.New("third attempt gives up")
	retried := 0
	err := c.RunRO(self, &tx, func(tx *ROTx) error {
		err := stopAt(theirs)(tx)
		if retried++; retried == 3 {
			return errUser
		}
		return err
	})
	if !errors.Is(err, errUser) || tx.stopped != nil || retried != 3 {
		t.Fatalf("err = %v, stopped = %p after %d attempts; want the user error and nil after 3", err, tx.stopped, retried)
	}
	// Exit by user abort: the nested-in-update case.
	if err := c.RunRO(self, &tx, stopAt(mine)); !errors.Is(err, ErrReadOnlyNested) || tx.stopped != nil {
		t.Fatalf("err = %v, stopped = %p; want ErrReadOnlyNested and nil", err, tx.stopped)
	}
	// Exit by commit, after an attempt that stopped. On the way: an inner
	// call does not begin with the var an outer read stopped at (the body
	// here drops that read's error, which a body must not), and a conflict
	// the body reports without a read behind it is retried as a plain
	// conflict, not blamed on the var the inner call stopped at.
	attempts := 0
	err = c.RunRO(self, &tx, func(tx *ROTx) error {
		attempts++
		if attempts == 1 {
			_, _ = ReadTRO(tx, theirs)
			if err := c.RunRO(self, tx, stopAt(mine)); !errors.Is(err, ErrReadOnlyNested) {
				t.Errorf("inner call: err = %v, want ErrReadOnlyNested", err)
			}
			return ErrConflict
		}
		_, err := ReadTRO(tx, free)
		return err
	})
	if err != nil || attempts != 2 || tx.stopped != nil {
		t.Fatalf("err = %v after %d attempts, stopped = %p; want nil, 2, nil", err, attempts, tx.stopped)
	}
	if a, ua, cm := self.Aborts.Load(), self.UserAborts.Load(), self.Commits.Load(); a != 3 || ua != 3 || cm != 1 {
		t.Fatalf("Aborts = %d, UserAborts = %d, Commits = %d; want 3, 3, 1", a, ua, cm)
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
	if node.a.Word().ID() == 0 || node.a.Word().ID() == node.b.Word().ID() {
		t.Fatalf("ids %d and %d", node.a.Word().ID(), node.b.Word().ID())
	}
	if pa, pb := (*int)(node.a.Word().LoadPtr()), (*int)(node.b.Word().LoadPtr()); pa != &x || pb != &y {
		t.Fatalf("cells %p and %p, want %p and %p", pa, pb, &x, &y)
	}
	if m := node.a.Word().Meta(); IsLocked(m) || VersionOf(m) != 0 {
		t.Fatalf("fresh var has meta %#x", m)
	}
}

func TestSnapshotConsistency(t *testing.T) {
	v := NewT(10)
	p, meta := v.Word().SnapshotPtr()
	if *(*int)(p) != 10 || IsLocked(meta) {
		t.Fatalf("snapshot = (%v, %d)", *(*int)(p), meta)
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
	if len(r.All()) != 2 {
		t.Fatal("All broken")
	}
}

func TestAggregateStats(t *testing.T) {
	var r Registry
	a, b := r.Add("a"), r.Add("b")
	a.Commits.Add(3)
	a.Aborts.Add(1)
	b.Commits.Add(2)
	b.UserAborts.Add(4)
	a.Serializations.Add(6)
	b.Serializations.Add(1)
	s := AggregateStats(r.All())
	if s.Commits != 5 || s.Aborts != 1 || s.UserAborts != 4 || s.Serializations != 7 {
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
	v := NewT(0).Word()
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
