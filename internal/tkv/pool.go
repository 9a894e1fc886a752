package tkv

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/shrink-tm/shrink/internal/stm"
)

// maxPoolSize is the largest thread pool a shard can have: one bit of the
// pool's free word per thread. Config.PoolSize is clamped to it.
const maxPoolSize = 64

// threadPool is a shard's fixed set of registered STM threads. The set is
// built once in Open and never changes — the TM's thread registry has no
// unregister, so a thread must not ride in anything that may drop it — and
// at most one caller holds a given thread at a time, which bounds the
// transactions concurrently executing in the shard to len(threads).
//
// Bit i of free is set while threads[i] is idle. A caller claims the idle
// thread of the lowest index with one compare-and-swap and returns it with
// one atomic OR, so a shard driven from one processor keeps running on
// threads[0] — one warm descriptor, and a per-thread scheduler history
// (Shrink's last few read sets) that follows the shard's latest
// transactions instead of every len(threads)-th. Only a caller that finds no
// bit set takes mu and parks on idle; it is woken by the next release but
// holds no reservation, so a newcomer's compare-and-swap may overtake it and
// send it back to wait for the release after that.
type threadPool struct {
	free    atomic.Uint64
	waiters atomic.Int32 // callers inside claimSlow; release signals only when non-zero
	mu      sync.Mutex
	idle    sync.Cond // on mu: some bit of free was set
	threads []stm.Thread
}

func (p *threadPool) init(threads []stm.Thread) {
	p.threads = threads
	p.idle.L = &p.mu
	p.free.Store(^uint64(0) >> (64 - len(threads)))
}

// tryClaim takes the lowest idle thread, or reports that there is none.
func (p *threadPool) tryClaim() (int, bool) {
	for {
		w := p.free.Load()
		if w == 0 {
			return 0, false
		}
		if p.free.CompareAndSwap(w, w&(w-1)) {
			return bits.TrailingZeros64(w), true
		}
	}
}

// claim returns the index of a thread that is the caller's alone until it
// calls release(i), blocking while every thread is held.
func (p *threadPool) claim() int {
	if i, ok := p.tryClaim(); ok {
		return i
	}
	return p.claimSlow()
}

// claimSlow parks until a claim succeeds. No wakeup is lost: a waiter
// announces itself in waiters before it looks at free again, and release
// sets its bit before it looks at waiters, so one of the two sees the other;
// and the waiter holds mu from the announcement until Wait has parked it,
// so the release that saw it signals only after it can be woken.
func (p *threadPool) claimSlow() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	for {
		if i, ok := p.tryClaim(); ok {
			return i
		}
		p.idle.Wait()
	}
}

// release returns thread i to the pool.
func (p *threadPool) release(i int) {
	p.free.Or(1 << i)
	if p.waiters.Load() != 0 {
		p.mu.Lock()
		p.idle.Signal()
		p.mu.Unlock()
	}
}
