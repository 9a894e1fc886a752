//go:build goexperiment.synctest

package synctime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// These pin what the bubble tests elsewhere rely on, so that a toolchain
// that changes the bubbles fails here first.

// TestHourSleepIsFake: a one-hour sleep in a bubble takes exactly one hour
// of the bubble's clock and well under a second of the wall's.
func TestHourSleepIsFake(t *testing.T) {
	wall := time.Now()
	Run(t, func() {
		start := time.Now()
		time.Sleep(time.Hour)
		if got := time.Since(start); got != time.Hour {
			t.Errorf("the sleep took %v of the bubble's clock, want exactly an hour", got)
		}
	})
	if got := time.Since(wall); got >= time.Second {
		t.Fatalf("a one-hour bubble sleep took %v of wall time", got)
	}
}

// TestClockWaitsForRunnable: the clock does not move while a goroutine of
// the bubble can run, however long that goroutine works and whatever
// timer is due; the timer fires only after it. That is what lets the WAL
// lane wait for a returning writer in a bubble without its fallback timer
// firing first.
func TestClockWaitsForRunnable(t *testing.T) {
	Run(t, func() {
		start := time.Now()
		var worked atomic.Bool
		woke := make(chan bool)
		timer := time.NewTimer(time.Millisecond)
		go func() {
			<-timer.C
			woke <- worked.Load()
		}()
		for i := 0; i < 1000; i++ {
			_ = fmt.Sprint(i) // work, not blocking: the clock stands still
		}
		if got := time.Since(start); got != 0 {
			t.Errorf("the clock moved %v while the test goroutine was running", got)
		}
		worked.Store(true)
		if !<-woke {
			t.Error("the timer fired while the test goroutine could still run")
		}
		if got := time.Since(start); got != time.Millisecond {
			t.Errorf("the timer fired after %v, want exactly its duration", got)
		}
	})
}

// TestAdvanceRunsEveryTickDue: Advance returns once each tick it carried
// the clock past has been received and handled, so k ticks of a ticker
// are exactly k handled ticks.
func TestAdvanceRunsEveryTickDue(t *testing.T) {
	Run(t, func() {
		const tick = 10 * time.Millisecond
		var ticks atomic.Int64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tk := time.NewTicker(tick)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					ticks.Add(1)
				case <-stop:
					return
				}
			}
		}()
		for k := int64(1); k <= 5; k++ {
			Advance(tick) // lands on the tick itself: the two are due at once
			if got := ticks.Load(); got != k {
				t.Errorf("%d ticks handled after %v, want %d", got, time.Duration(k)*tick, k)
			}
		}
		close(stop)
		<-done
	})
}

// TestLeftoverGoroutineFails: a goroutine still blocked when the bubble's
// function returns fails the test instead of hanging it.
func TestLeftoverGoroutineFails(t *testing.T) {
	rec := &recorder{TB: t}
	Run(rec, func() {
		c := make(chan struct{})
		go func() { <-c }() // nothing will ever send: it outlives the bubble
	})
	if rec.failure == "" {
		t.Fatal("a goroutine left blocked in the bubble did not fail the test")
	}
	t.Logf("reported: %s", rec.failure)
}

// recorder is a testing.TB that keeps the failure Run reports instead of
// failing the test that runs it.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) { r.failure = fmt.Sprintf(format, args...) }
