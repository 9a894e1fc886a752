package keylock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, defaultStripes}, {0, defaultStripes}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := len(New(tc.in).stripes); got != tc.want {
			t.Errorf("New(%d) has %d stripes, want %d", tc.in, got, tc.want)
		}
	}
}

func TestStripeDistribution(t *testing.T) {
	tab := New(64)
	counts := make([]int, len(tab.stripes))
	const keys = 64 * 256
	for k := uint64(0); k < keys; k++ {
		counts[tab.stripeOf(k)]++
	}
	for i, c := range counts {
		if c < 128 || c > 512 {
			t.Fatalf("stripe %d owns %d of %d sequential keys; distribution is skewed", i, c, keys)
		}
	}
}

// keysOnTwoStripes returns two keys owned by different stripes of tab.
func keysOnTwoStripes(tab *Table) (a, b uint64) {
	for b = 1; tab.stripeOf(b) == tab.stripeOf(a); b++ {
	}
	return a, b
}

// TestDisjointStripesDoNotBlock pins the point of striping: an exclusive
// hold on one stripe must not block an exclusive acquisition of another,
// while an acquisition of the held stripe must block until release.
func TestDisjointStripesDoNotBlock(t *testing.T) {
	tab := New(8)
	a, b := keysOnTwoStripes(tab)
	i := tab.LockKey(a)

	done := make(chan struct{}, 2)
	go func() { tab.Unlock(tab.LockKey(b)); done <- struct{}{} }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint stripe acquisition blocked behind an exclusive holder")
	}

	var blockedDone atomic.Bool
	go func() { tab.Unlock(tab.LockKey(a)); blockedDone.Store(true); done <- struct{}{} }()
	time.Sleep(20 * time.Millisecond)
	if blockedDone.Load() {
		t.Fatal("acquisition of a held stripe did not block")
	}
	tab.Unlock(i)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked acquisition never resumed after release")
	}
}

// TestSharedModeConcurrent checks shared holders coexist and are excluded by
// an exclusive holder.
func TestSharedModeConcurrent(t *testing.T) {
	tab := New(8)
	i := tab.RLockKey(42)
	if j := tab.stripeOf(42); i != j {
		t.Fatalf("RLockKey stripe = %d, stripeOf = %d", i, j)
	}
	ok := make(chan struct{})
	go func() { tab.RUnlock(tab.RLockKey(42)); close(ok) }()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("second shared holder blocked")
	}

	var got atomic.Bool
	release := make(chan struct{})
	go func() { j := tab.LockKey(42); got.Store(true); tab.Unlock(j); close(release) }()
	time.Sleep(20 * time.Millisecond)
	if got.Load() {
		t.Fatal("exclusive acquisition succeeded under a shared holder")
	}
	tab.RUnlock(i)
	<-release
}

// TestLockKeyExcludesShared: an exclusive single-key hold blocks shared
// holders of its stripe until release, and leaves other stripes free.
func TestLockKeyExcludesShared(t *testing.T) {
	tab := New(8)
	key, other := keysOnTwoStripes(tab)
	i := tab.LockKey(key)
	if i != tab.stripeOf(key) {
		t.Fatalf("LockKey stripe = %d, stripeOf = %d", i, tab.stripeOf(key))
	}

	free := make(chan struct{})
	go func() { tab.RUnlock(tab.RLockKey(other)); close(free) }()
	select {
	case <-free:
	case <-time.After(5 * time.Second):
		t.Fatal("shared holder of another stripe blocked behind LockKey")
	}

	held := make(chan struct{})
	go func() { tab.RUnlock(tab.RLockKey(key)); close(held) }()
	select {
	case <-held:
		t.Fatal("shared acquisition succeeded under a LockKey hold")
	case <-time.After(20 * time.Millisecond):
	}
	tab.Unlock(i)
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("shared acquisition never resumed after the LockKey hold was released")
	}
}

// TestStressMixedModes hammers one table from many goroutines mixing
// single-key shared and exclusive holds. Run under -race this checks the
// Table's own bookkeeping. Mutual exclusion is checked with an owner word per
// stripe that only exclusive holders may set: a shared holder must find it
// clear, an exclusive holder must find it clear and claim it. A lost wakeup
// shows up as a hang.
func TestStressMixedModes(t *testing.T) {
	tab := New(8)
	owners := make([]atomic.Int32, len(tab.stripes))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if rng.Intn(2) == 0 {
					idx := tab.RLockKey(rng.Uint64())
					runtime.Gosched() // hold the stripe across a reschedule
					if owners[idx].Load() != 0 {
						t.Errorf("shared hold of stripe %d overlaps an exclusive owner", idx)
					}
					tab.RUnlock(idx)
					continue
				}
				idx := tab.LockKey(rng.Uint64())
				if !owners[idx].CompareAndSwap(0, int32(w)+1) {
					t.Errorf("stripe %d double-owned by exclusive holders", idx)
				}
				runtime.Gosched()
				owners[idx].Store(0)
				tab.Unlock(idx)
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
}
