//go:build goexperiment.synctest

package synctime

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"
)

// Run runs f in a new bubble and returns once every goroutine f started has
// ended. Inside, the clock is fake: it starts at midnight UTC 2000-01-01
// and moves only when every goroutine of the bubble is durably blocked — on
// a channel made inside the bubble, a select of such channels, a timer, a
// sleep, sync.Cond.Wait or sync.WaitGroup.Wait — and then straight to the
// next timer due. A goroutine that is running, runnable, in a system call
// (a real socket or file) or waiting for a sync.Mutex holds the clock
// still, so one that spins until a time has passed spins forever.
//
// So a test closes inside f what it opened there (a store, a log, a
// server), never in t.Cleanup, which runs outside. A goroutine still
// blocked when f returns would block the bubble forever; Run fails t
// instead. When f ends the test early (t.Fatal), Run ends it in the
// test's own goroutine too.
//
// Run ends with two collections, which empty every sync.Pool: a pooled
// object built inside the bubble may hold one of its channels, and a test
// outside any bubble that took it from the pool would panic on it.
func Run(t testing.TB, f func()) {
	t.Helper()
	// Atomic: under the race detector the bubble's end orders nothing
	// with the return of Run.
	var returned atomic.Bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("synctime: %v: a goroutine started in the bubble was still blocked when it ended", r)
			}
		}()
		synctest.Run(func() {
			f()
			returned.Store(true)
		})
	}()
	runtime.GC()
	runtime.GC()
	if !returned.Load() {
		t.FailNow()
	}
}

// Wait blocks until every other goroutine of the calling bubble is durably
// blocked: whatever the last move of the clock, or the caller, set running
// has run as far as it can.
func Wait() { synctest.Wait() }

// Advance moves the bubble's clock d forward from the calling goroutine
// and returns once everything the move woke — the ticks and timers due by
// then — has run and blocked again.
func Advance(d time.Duration) {
	time.Sleep(d)
	synctest.Wait()
}
