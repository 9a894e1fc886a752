// Package keylock is a striped reader/writer lock table over uint64 keys:
// the key-granular lock layer of the tkv serving subsystem. A Table hashes
// each key onto one of a power-of-two number of stripes, each an independent
// sync.RWMutex, so exclusion is per-stripe rather than per-table: two lock
// holders collide only when their keys share a stripe, with a collision
// probability that falls linearly in the stripe count.
//
// Both modes of the underlying RWMutex are exposed. The protocol tkv follows
// gives the stripes one job, on a store with a log attached: make log order
// equal commit order per key.
//
//   - a writer of a logged store takes its keys' stripes in exclusive mode
//     (LockKey, or Lock over a sorted stripe set) from before its STM
//     transaction until its record is in the log; a multi-key writer
//     brackets its stripes with the Enter/Exit session gate;
//   - a read of a logged store, atomic by other means (a single STM
//     transaction), takes its stripes in shared mode, so that it never
//     returns a write whose record is not yet in the log;
//   - a store without a log takes no stripes: its batches hold only the
//     Enter/Exit gate, and its single-key operations nothing;
//   - a whole-table observer (a snapshot, a read-only fence) calls Freeze,
//     which excludes every Enter/Exit session at once — O(1), no stripe
//     walk — while leaving single-stripe holders undisturbed.
//
// Deadlock freedom is the caller's obligation and is easy to meet: acquire a
// multi-stripe set without duplicates in ascending index order, take the
// Enter gate before the Table's first stripe and Exit it after the last
// stripe is released, and order Tables themselves consistently (tkv orders
// them by shard index, and its batches build their stripe sets already
// sorted and deduplicated). Single-stripe acquisitions compose with
// anything.
//
// The stripe count is fixed when the Table is built, so a key's stripe
// never changes and a stripe set planned from StripeOf stays valid for the
// Table's lifetime. More stripes remove waits that are hash collisions of
// distinct keys; waits on one hot key stay whatever the count.
//
// The Table counts contended acquisitions (an acquisition that could not be
// satisfied immediately) per mode. The counters are monotonic and cheap —
// one TryLock attempt on the uncontended path, one atomic add when blocked —
// and feed tkv's per-shard stripe-wait statistics.
package keylock

import (
	"sync"
	"sync/atomic"
)

// DefaultStripes is the stripe count used when New is given n <= 0: two
// random keys collide with probability 1/64 per pair, at 64 cache lines
// of footprint per table.
const DefaultStripes = 64

// stripe pads its RWMutex to a cache line so that contention on one stripe
// never false-shares with its neighbors.
type stripe struct {
	mu sync.RWMutex
	_  [40]byte // 64 - sizeof(sync.RWMutex)
}

// Table is a striped lock table. The zero value is not usable; call New.
type Table struct {
	stripes []stripe
	mask    uint64
	// gate tracks exclusive multi-stripe sessions (Enter/Exit hold it
	// shared) so that a whole-table observer (Freeze) can exclude every
	// such session in O(1) instead of walking stripes.
	gate sync.RWMutex
	// exclWaits and sharedWaits count contended acquisitions per mode.
	exclWaits   atomic.Uint64
	sharedWaits atomic.Uint64
}

// New builds a Table with n stripes, rounded up to a power of two
// (DefaultStripes when n <= 0).
func New(n int) *Table {
	if n <= 0 {
		n = DefaultStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return &Table{stripes: make([]stripe, p), mask: uint64(p - 1)}
}

// Stripes returns the stripe count (a power of two).
func (t *Table) Stripes() int { return len(t.stripes) }

// mix is the splitmix64 finalizer: StripeOf must not feed raw keys to the
// mask, or sequential keys would pile onto sequential stripes and an
// adversarial key pattern onto one.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// StripeOf returns the stripe index owning a key. The low bits of the mixed
// key select the stripe, so callers that shard on the high bits of the same
// mix (as tkv does) get independent shard and stripe choices.
func (t *Table) StripeOf(key uint64) int { return int(mix(key) & t.mask) }

// Lock acquires stripe i exclusively, counting the acquisition as contended
// when it cannot be satisfied immediately.
func (t *Table) Lock(i int) {
	mu := &t.stripes[i].mu
	if !mu.TryLock() {
		t.exclWaits.Add(1)
		mu.Lock()
	}
}

// Unlock releases stripe i from exclusive mode.
func (t *Table) Unlock(i int) { t.stripes[i].mu.Unlock() }

// RLock acquires stripe i in shared mode, counting contention like Lock.
func (t *Table) RLock(i int) {
	mu := &t.stripes[i].mu
	if !mu.TryRLock() {
		t.sharedWaits.Add(1)
		mu.RLock()
	}
}

// RUnlock releases stripe i from shared mode.
func (t *Table) RUnlock(i int) { t.stripes[i].mu.RUnlock() }

// RLockKey acquires the stripe owning key in shared mode and returns its
// index for the matching RUnlock — the single-key fast path.
func (t *Table) RLockKey(key uint64) int {
	i := t.StripeOf(key)
	t.RLock(i)
	return i
}

// LockKey acquires the stripe owning key in exclusive mode and returns its
// index for the matching Unlock. It is RLockKey's exclusive twin, for
// single-key writers that must order side effects per key (tkv's log
// append: the record is numbered before the stripe is released, so log
// order is commit order for every key). Single-stripe exclusive holds need
// no Enter/Exit session, and Freeze deliberately does not exclude them
// (they are atomic per shard by the STM, exactly like the shared holders
// Freeze leaves undisturbed).
func (t *Table) LockKey(key uint64) int {
	i := t.StripeOf(key)
	t.Lock(i)
	return i
}

// Enter begins an exclusive multi-stripe session: callers that take stripes
// in exclusive mode must bracket the acquisition with Enter/Exit (once per
// session, before the first stripe) to be visible to Freeze. Sessions never
// exclude each other — their stripes do that, per key.
func (t *Table) Enter() {
	if !t.gate.TryRLock() {
		t.exclWaits.Add(1)
		t.gate.RLock()
	}
}

// Exit ends an Enter session. Call it after releasing the session's stripes.
func (t *Table) Exit() { t.gate.RUnlock() }

// Freeze blocks until no exclusive session (Enter/Exit) is active and holds
// new ones out until Unfreeze: the whole-table observer's cut, O(1) instead
// of a walk over every stripe. Single-stripe holders, shared or exclusive,
// are unaffected — Freeze pairs with callers whose own reads are atomic by
// other means (tkv's per-shard snapshot transactions) and only need
// multi-phase writers excluded. Freezes exclude each other; contended
// freezes count as shared waits.
func (t *Table) Freeze() {
	if !t.gate.TryLock() {
		t.sharedWaits.Add(1)
		t.gate.Lock()
	}
}

// Unfreeze releases a Freeze.
func (t *Table) Unfreeze() { t.gate.Unlock() }

// Waits reports the contended acquisition counts (shared, exclusive).
func (t *Table) Waits() (shared, excl uint64) {
	return t.sharedWaits.Load(), t.exclWaits.Load()
}
