// Package keylock is a striped reader/writer lock table over uint64 keys. A
// Table hashes each key onto one of a power-of-two number of stripes, each an
// independent sync.RWMutex, so exclusion is per-stripe rather than
// per-table: two lock holders collide only when their keys share a stripe,
// with a collision probability that falls linearly in the stripe count.
//
// The tkv store no longer takes key locks: a logged write appends its record
// from inside its STM commit, which orders the log without them, and a
// shard's session gate lives in tkv. The table's last importer is the
// benchmark's replay probe (bench/layers.go), which times an uncontended
// lock and unlock of an operation's stripes as the keylock.lock span; the
// package goes when that probe does.
//
// Single-key acquisitions (LockKey, RLockKey) compose with anything; a caller
// holding several stripes at once must take them in ascending index order.
package keylock

import "sync"

// defaultStripes is the stripe count used when New is given n <= 0.
const defaultStripes = 64

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
}

// New builds a Table with n stripes, rounded up to a power of two (64 when
// n <= 0).
func New(n int) *Table {
	if n <= 0 {
		n = defaultStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return &Table{stripes: make([]stripe, p), mask: uint64(p - 1)}
}

// mix is the splitmix64 finalizer: stripeOf must not feed raw keys to the
// mask, or sequential keys would pile onto sequential stripes and an
// adversarial key pattern onto one.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// stripeOf returns the stripe index owning a key.
func (t *Table) stripeOf(key uint64) int { return int(mix(key) & t.mask) }

// LockKey acquires the stripe owning key exclusively and returns its index
// for the matching Unlock.
func (t *Table) LockKey(key uint64) int {
	i := t.stripeOf(key)
	t.stripes[i].mu.Lock()
	return i
}

// Unlock releases stripe i from exclusive mode.
func (t *Table) Unlock(i int) { t.stripes[i].mu.Unlock() }

// RLockKey acquires the stripe owning key in shared mode and returns its
// index for the matching RUnlock.
func (t *Table) RLockKey(key uint64) int {
	i := t.stripeOf(key)
	t.stripes[i].mu.RLock()
	return i
}

// RUnlock releases stripe i from shared mode.
func (t *Table) RUnlock(i int) { t.stripes[i].mu.RUnlock() }
