package keylock

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, DefaultStripes}, {0, DefaultStripes}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := New(tc.in).Stripes(); got != tc.want {
			t.Errorf("New(%d).Stripes() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestStripeDistribution(t *testing.T) {
	tab := New(64)
	counts := make([]int, tab.Stripes())
	const keys = 64 * 256
	for k := uint64(0); k < keys; k++ {
		counts[tab.StripeOf(k)]++
	}
	for i, c := range counts {
		if c < 128 || c > 512 {
			t.Fatalf("stripe %d owns %d of %d sequential keys; distribution is skewed", i, c, keys)
		}
	}
}

// TestDisjointStripesDoNotBlock pins the point of striping: an exclusive
// hold on one stripe must not block an exclusive acquisition of another,
// while an acquisition of the held stripe must block until release.
func TestDisjointStripesDoNotBlock(t *testing.T) {
	tab := New(8)
	tab.Lock(3)

	done := make(chan int, 2)
	go func() { tab.Lock(5); tab.Unlock(5); done <- 5 }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint stripe acquisition blocked behind an exclusive holder")
	}

	var blockedDone atomic.Bool
	go func() { tab.Lock(3); tab.Unlock(3); blockedDone.Store(true); done <- 3 }()
	time.Sleep(20 * time.Millisecond)
	if blockedDone.Load() {
		t.Fatal("acquisition of a held stripe did not block")
	}
	tab.Unlock(3)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquisition never resumed after release")
	}
	if _, excl := tab.Waits(); excl == 0 {
		t.Fatal("blocked exclusive acquisition was not counted as a wait")
	}
}

// TestSharedModeConcurrent checks shared holders coexist and are excluded by
// an exclusive holder, with the contended shared acquisition counted.
func TestSharedModeConcurrent(t *testing.T) {
	tab := New(8)
	i := tab.RLockKey(42)
	j := tab.StripeOf(42)
	if i != j {
		t.Fatalf("RLockKey stripe = %d, StripeOf = %d", i, j)
	}
	ok := make(chan struct{})
	go func() { tab.RLock(i); tab.RUnlock(i); close(ok) }()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("second shared holder blocked")
	}

	var got atomic.Bool
	release := make(chan struct{})
	go func() { tab.Lock(i); got.Store(true); tab.Unlock(i); close(release) }()
	time.Sleep(20 * time.Millisecond)
	if got.Load() {
		t.Fatal("exclusive acquisition succeeded under a shared holder")
	}
	tab.RUnlock(i)
	<-release
}

// TestFreezeExcludesSessions: the whole-table cut waits for any active
// Enter/Exit session and holds new ones out, while single-stripe holders,
// shared or exclusive (LockKey), pass freely in both directions.
func TestFreezeExcludesSessions(t *testing.T) {
	tab := New(16)

	// Freeze waits for an active session.
	tab.Enter()
	tab.Lock(9)
	frozen := make(chan struct{})
	go func() { tab.Freeze(); close(frozen) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-frozen:
		t.Fatal("Freeze succeeded under an active exclusive session")
	default:
	}
	tab.Unlock(9)
	tab.Exit()
	select {
	case <-frozen:
	case <-time.After(5 * time.Second):
		t.Fatal("Freeze never acquired after the session exited")
	}

	// Under a freeze, new sessions block but shared stripe holders pass.
	ok := make(chan struct{})
	go func() { i := tab.RLockKey(7); tab.RUnlock(i); close(ok) }()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("shared stripe holder blocked under Freeze")
	}
	excl := make(chan struct{})
	go func() { i := tab.LockKey(7); tab.Unlock(i); close(excl) }()
	select {
	case <-excl:
	case <-time.After(5 * time.Second):
		t.Fatal("LockKey holder blocked under Freeze")
	}
	var entered atomic.Bool
	done := make(chan struct{})
	go func() { tab.Enter(); entered.Store(true); tab.Exit(); close(done) }()
	time.Sleep(20 * time.Millisecond)
	if entered.Load() {
		t.Fatal("session began under Freeze")
	}
	tab.Unfreeze()
	<-done

	// Freeze does not wait for a LockKey holder: that hold is no session.
	i := tab.LockKey(7)
	frozen = make(chan struct{})
	go func() { tab.Freeze(); tab.Unfreeze(); close(frozen) }()
	select {
	case <-frozen:
	case <-time.After(5 * time.Second):
		t.Fatal("Freeze waited for a LockKey holder")
	}
	tab.Unlock(i)
}

// eventually polls cond until it holds, failing the test after five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestLockKeyExcludesShared: an exclusive single-key hold (LockKey, the
// logged write path's lock) blocks shared holders of its stripe until
// release, counting each as a shared wait, and leaves other stripes free.
func TestLockKeyExcludesShared(t *testing.T) {
	tab := New(8)
	const key = 42
	other := uint64(0)
	for tab.StripeOf(other) == tab.StripeOf(key) {
		other++
	}
	i := tab.LockKey(key)
	if i != tab.StripeOf(key) {
		t.Fatalf("LockKey stripe = %d, StripeOf = %d", i, tab.StripeOf(key))
	}

	free := make(chan struct{})
	go func() { j := tab.RLockKey(other); tab.RUnlock(j); close(free) }()
	select {
	case <-free:
	case <-time.After(5 * time.Second):
		t.Fatal("shared holder of another stripe blocked behind LockKey")
	}
	if shared, _ := tab.Waits(); shared != 0 {
		t.Fatalf("an uncontended shared acquisition counted %d waits", shared)
	}

	held := make(chan struct{})
	go func() { j := tab.RLockKey(key); tab.RUnlock(j); close(held) }()
	eventually(t, "the blocked shared acquisition is counted", func() bool {
		shared, _ := tab.Waits()
		return shared == 1
	})
	select {
	case <-held:
		t.Fatal("shared acquisition succeeded under a LockKey hold")
	default:
	}
	tab.Unlock(i)
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("shared acquisition never resumed after the LockKey hold was released")
	}
}

// TestFreezesExcludeEachOther: a Freeze waits out another, counted as a
// shared wait, and a session held out by a Freeze counts as an exclusive
// wait.
func TestFreezesExcludeEachOther(t *testing.T) {
	tab := New(4)
	tab.Freeze()
	second := make(chan struct{})
	go func() { tab.Freeze(); tab.Unfreeze(); close(second) }()
	eventually(t, "the second Freeze counts its wait", func() bool {
		shared, _ := tab.Waits()
		return shared == 1
	})
	select {
	case <-second:
		t.Fatal("two Freezes held the table at once")
	default:
	}
	tab.Unfreeze()
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("the second Freeze never acquired after Unfreeze")
	}

	tab.Freeze()
	entered := make(chan struct{})
	go func() { tab.Enter(); tab.Exit(); close(entered) }()
	eventually(t, "the held-out session counts its wait", func() bool {
		_, excl := tab.Waits()
		return excl == 1
	})
	tab.Unfreeze()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the session never began after Unfreeze")
	}
	if shared, excl := tab.Waits(); shared != 1 || excl != 1 {
		t.Fatalf("waits = %d/%d, want 1/1", shared, excl)
	}
}

// TestStressMixedModes hammers one table from many goroutines mixing
// single-key shared holds, single-key exclusive holds (LockKey, the lock
// the logged write path takes), multi-stripe exclusive sessions and
// whole-table freezes. Run under -race this checks the Table's own
// bookkeeping. Mutual exclusion is checked with two owner words per
// stripe, one for session holders and one for LockKey holders, that only
// exclusive holders may set: a shared holder must find both clear, an
// exclusive holder must find the other's clear, and a Freeze must find no
// session owner — but may find a LockKey owner, which it does not wait
// for. The wait counters must never go backwards. Ascending acquisition
// order (the package contract) must make all of this deadlock-free: a lost
// wakeup or an order violation shows up as a hang.
func TestStressMixedModes(t *testing.T) {
	tab := New(8)
	sessionOwners := make([]atomic.Int32, tab.Stripes())
	keyOwners := make([]atomic.Int32, tab.Stripes())

	// The watcher is the only goroutine comparing successive counter reads,
	// so monotonicity across its own reads is a valid check.
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var lastShared, lastExcl uint64
		for {
			sh, ex := tab.Waits()
			if sh < lastShared || ex < lastExcl {
				t.Errorf("wait counters went backwards: shared %d->%d excl %d->%d", lastShared, sh, lastExcl, ex)
			}
			lastShared, lastExcl = sh, ex
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				switch rng.Intn(4) {
				case 0: // single-key shared
					idx := tab.RLockKey(rng.Uint64())
					runtime.Gosched() // hold the stripe across a reschedule
					if sessionOwners[idx].Load() != 0 || keyOwners[idx].Load() != 0 {
						t.Errorf("shared hold of stripe %d overlaps an exclusive owner", idx)
					}
					tab.RUnlock(idx)
				case 1: // multi-stripe exclusive session (sorted, deduped,
					// ascending — the caller obligation the package doc states)
					stripes := make([]int, 0, 6)
					for j := 0; j < 1+rng.Intn(6); j++ {
						s := tab.StripeOf(rng.Uint64())
						dup := false
						for _, have := range stripes {
							dup = dup || have == s
						}
						if !dup {
							stripes = append(stripes, s)
						}
					}
					sort.Ints(stripes)
					tab.Enter()
					for _, idx := range stripes {
						tab.Lock(idx)
					}
					for _, idx := range stripes {
						if !sessionOwners[idx].CompareAndSwap(0, int32(w)+1) {
							t.Errorf("stripe %d double-owned by sessions", idx)
						}
						if keyOwners[idx].Load() != 0 {
							t.Errorf("session hold of stripe %d overlaps a LockKey owner", idx)
						}
					}
					runtime.Gosched()
					for _, idx := range stripes {
						sessionOwners[idx].Store(0)
						tab.Unlock(idx)
					}
					tab.Exit()
				case 2: // whole-table cut: excludes sessions, not LockKey holders
					tab.Freeze()
					runtime.Gosched()
					for idx := range sessionOwners {
						if sessionOwners[idx].Load() != 0 {
							t.Errorf("Freeze overlaps the session owner of stripe %d", idx)
						}
					}
					tab.Unfreeze()
				case 3: // single-key exclusive, no session
					idx := tab.LockKey(rng.Uint64())
					if !keyOwners[idx].CompareAndSwap(0, int32(w)+1) {
						t.Errorf("stripe %d double-owned by LockKey holders", idx)
					}
					if sessionOwners[idx].Load() != 0 {
						t.Errorf("LockKey hold of stripe %d overlaps a session owner", idx)
					}
					runtime.Gosched()
					keyOwners[idx].Store(0)
					tab.Unlock(idx)
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("stress test hung: lost wakeup or deadlock")
	}
	close(stop)
	<-watched
}
