package stm

import (
	"testing"
	"time"
)

func TestWaitPolicyStringJunkValue(t *testing.T) {
	// The zero value is covered in stm_test.go; any other unnamed value
	// must also render as unknown rather than panic.
	if got := WaitPolicy(99).String(); got != "unknown" {
		t.Fatalf("junk policy = %q", got)
	}
}

func TestBackoffNonPositiveAttemptReturnsImmediately(t *testing.T) {
	for _, p := range []WaitPolicy{WaitPreemptive, WaitBusy} {
		start := time.Now()
		p.Backoff(0)
		p.Backoff(-1)
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("%v: Backoff(<=0) took %v", p, d)
		}
	}
}

func TestBackoffPreemptiveGrowsAndIsBounded(t *testing.T) {
	// Attempts below 3 only yield; from attempt 3 on the wait is a sleep
	// of 2^min(attempt-3,8) microseconds, so attempt 9 must block for at
	// least 64us and a huge attempt stays at the 256us cap.
	start := time.Now()
	WaitPreemptive.Backoff(9)
	if d := time.Since(start); d < 64*time.Microsecond {
		t.Fatalf("Backoff(9) returned after %v, want >= 64us", d)
	}
	start = time.Now()
	WaitPreemptive.Backoff(1000)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Backoff(1000) took %v; the exponent must be capped", d)
	}
}

func TestBackoffBusyIsBounded(t *testing.T) {
	// The busy spin count caps at 2^10 units; even absurd attempt counts
	// must return quickly and never yield control flow.
	start := time.Now()
	for _, attempt := range []int{1, 5, 10, 63, 1 << 20} {
		WaitBusy.Backoff(attempt)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("busy backoffs took %v; the spin count must be capped", d)
	}
}

func TestSpinWhileLockedReleaseMidSpin(t *testing.T) {
	// The static lock/unlock cases live in stm_test.go; this covers the
	// dynamic one: a waiter spinning while another thread releases.
	const owner, other = 1, 2
	v := NewT(1).Word()
	if !v.TryLock(v.Meta(), owner) {
		t.Fatal("TryLock failed on unlocked var")
	}
	go func() {
		time.Sleep(100 * time.Microsecond)
		v.Unlock(2)
	}()
	if !WaitPreemptive.SpinWhileLocked(v, other, 1<<30) {
		t.Fatal("released lock never observed")
	}
}
