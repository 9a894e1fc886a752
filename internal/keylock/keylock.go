// Package keylock is a striped reader/writer lock table over uint64 keys:
// the key-granular admission layer the tkv serving subsystem plans batches
// with. A Table hashes each key onto one of a power-of-two number of
// stripes, each an independent sync.RWMutex, so exclusion is per-stripe
// rather than per-table: two lock holders collide only when their keys share
// a stripe, with a collision probability that falls linearly in the stripe
// count.
//
// Both modes of the underlying RWMutex are exposed. The intended protocol
// (the one tkv follows) is:
//
//   - an operation that must exclude multi-phase writers from its keys but
//     is itself atomic by other means (a single STM transaction) takes its
//     stripes in shared mode;
//   - a multi-phase writer (a plan/apply batch, whose intermediate state
//     must not be observed) takes its stripes in exclusive mode, bracketing
//     the whole session with Enter/Exit;
//   - a whole-table observer (a snapshot) calls Freeze, which excludes
//     every Enter/Exit session at once — O(1), no stripe walk — while
//     leaving shared single-stripe holders undisturbed.
//
// Deadlock freedom is the caller's obligation and is easy to meet: sort
// and deduplicate a multi-stripe set and acquire it in ascending index
// order, take the Enter gate before the Table's first stripe and Exit it
// after the last stripe is released, and order Tables themselves
// consistently (tkv orders them by shard index; its lockPlan owns the
// sort/dedup). Single-stripe acquisitions compose with anything.
//
// # Adaptive stripe counts
//
// The stripe table can resize at runtime: Resize doubles or halves the
// stripe count (any power of two between MinStripes and MaxStripes of the
// adapt config), and Adapt applies a waits-per-op policy — grow when
// contended acquisitions per operation cross a threshold, shrink back when
// contention subsides. Resizing reuses the existing O(1) session gate: the
// resizer excludes every multi-stripe session via the gate (exactly as
// Freeze does), waits out every single-stripe holder by sweeping the old
// stripes in ascending order, then swaps in a fresh table generation.
//
// Because the key→stripe mapping changes across a resize, stripe indices
// are only meaningful against one generation. Single-key acquisitions
// (RLockKey) revalidate internally and are oblivious to resizes. Multi-
// stripe callers plan against a generation (Version) and acquire through
// the version-checked LockV/RLockV, which refuse — instead of locking the
// wrong stripe — when the plan went stale; the caller releases what it
// holds and replans. Once a caller holds any stripe of a generation (or
// the session gate), that generation is pinned: a resize cannot complete
// until the hold is released, so Unlock/RUnlock always resolve the same
// stripe the lock call acquired.
//
// The Table counts contended acquisitions (an acquisition that could not be
// satisfied immediately) per mode. The counters are monotonic, cheap — one
// TryLock attempt on the uncontended path, one atomic add when blocked —
// and continuous across resizes; they feed tkv's per-shard stripe-wait
// statistics and the Adapt policy.
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

// generation is one immutable stripe table. Resizing installs a new
// generation; holders of old-generation stripes pin their generation until
// release (the resizer cannot finish its stripe sweep past them).
type generation struct {
	stripes []stripe
	mask    uint64
	version uint64
}

// AdaptConfig parameterizes the Adapt policy.
type AdaptConfig struct {
	// MinStripes and MaxStripes bound the adaptive stripe count (rounded
	// to powers of two). Adapt never resizes outside them; Resize ignores
	// them (it is the mechanism, Adapt the policy).
	MinStripes, MaxStripes int
	// GrowWaitsPerOp is the contended-acquisitions-per-operation rate at
	// or above which Adapt doubles the stripe count.
	GrowWaitsPerOp float64
	// ShrinkWaitsPerOp is the rate at or below which Adapt halves it.
	ShrinkWaitsPerOp float64
	// MinSampleOps is the minimum operation delta between two Adapt calls
	// for the rate to be trusted; below it Adapt does nothing (and keeps
	// accumulating).
	MinSampleOps uint64
}

// DefaultAdaptConfig returns the policy defaults: grow past 1 contended
// acquisition per 32 ops, shrink below 1 per 1024, bounds [initial, 1024].
func DefaultAdaptConfig(initial int) AdaptConfig {
	if initial <= 0 {
		initial = DefaultStripes
	}
	return AdaptConfig{
		MinStripes:       initial,
		MaxStripes:       1024,
		GrowWaitsPerOp:   1.0 / 32,
		ShrinkWaitsPerOp: 1.0 / 1024,
		MinSampleOps:     256,
	}
}

// Table is a striped lock table. The zero value is not usable; call New.
type Table struct {
	gen atomic.Pointer[generation]
	// gate tracks exclusive multi-stripe sessions (Enter/Exit hold it
	// shared) so that a whole-table observer (Freeze) — and the resizer —
	// can exclude every such session in O(1) instead of walking stripes.
	gate sync.RWMutex
	// exclWaits and sharedWaits count contended acquisitions per mode.
	exclWaits   atomic.Uint64
	sharedWaits atomic.Uint64
	resizes     atomic.Uint64

	// Adapt state, guarded by adaptMu (Adapt callers are expected to be a
	// single periodic controller, but nothing breaks if they race).
	adaptMu   sync.Mutex
	adaptCfg  AdaptConfig
	adaptOn   bool
	lastOps   uint64
	lastWaits uint64
}

// roundPow2 rounds n up to a power of two (minimum 1).
func roundPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a Table with n stripes, rounded up to a power of two
// (DefaultStripes when n <= 0).
func New(n int) *Table {
	if n <= 0 {
		n = DefaultStripes
	}
	p := roundPow2(n)
	t := &Table{}
	t.gen.Store(&generation{stripes: make([]stripe, p), mask: uint64(p - 1)})
	return t
}

// Stripes returns the current stripe count (a power of two).
func (t *Table) Stripes() int { return len(t.gen.Load().stripes) }

// Version identifies the current table generation. It changes exactly when
// a resize installs a new stripe table; multi-stripe callers capture it
// while planning and pass it to LockV/RLockV.
func (t *Table) Version() uint64 { return t.gen.Load().version }

// Resizes returns the number of completed resizes.
func (t *Table) Resizes() uint64 { return t.resizes.Load() }

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

// StripeOf returns the stripe index owning a key in the current generation.
// The low bits of the mixed key select the stripe, so callers that shard on
// the high bits of the same mix (as tkv does) get independent shard and
// stripe choices. Across a resize the mapping changes; plans built from
// StripeOf must be revalidated through LockV/RLockV with the Version
// captured alongside.
func (t *Table) StripeOf(key uint64) int { return int(mix(key) & t.gen.Load().mask) }

// lockPinned acquires stripe i of generation g exclusively and reports
// whether g was still current once the hold was obtained. A true return
// pins g: the resizer's stripe sweep cannot pass this hold, so g stays
// current until release. A false return means a resize swapped generations
// while we were blocked (we woke up on a retired stripe); the hold has been
// released and the caller must retry against the new generation.
func (t *Table) lockPinned(g *generation, i int) bool {
	s := &g.stripes[i]
	if !s.mu.TryLock() {
		t.exclWaits.Add(1)
		s.mu.Lock()
	}
	if t.gen.Load() != g {
		s.mu.Unlock()
		return false
	}
	return true
}

// rlockPinned is lockPinned for shared mode.
func (t *Table) rlockPinned(g *generation, i int) bool {
	s := &g.stripes[i]
	if !s.mu.TryRLock() {
		t.sharedWaits.Add(1)
		s.mu.RLock()
	}
	if t.gen.Load() != g {
		s.mu.RUnlock()
		return false
	}
	return true
}

// Lock acquires stripe i exclusively, counting the acquisition as contended
// when it cannot be satisfied immediately. The index addresses the current
// generation; callers that resize concurrently must use LockV instead.
func (t *Table) Lock(i int) {
	for {
		if g := t.gen.Load(); t.lockPinned(g, i) {
			return
		}
	}
}

// Unlock releases stripe i from exclusive mode. The holder pinned its
// generation, so the current generation is the one the stripe was locked in.
func (t *Table) Unlock(i int) { t.gen.Load().stripes[i].mu.Unlock() }

// RLock acquires stripe i in shared mode, counting contention like Lock.
func (t *Table) RLock(i int) {
	for {
		if g := t.gen.Load(); t.rlockPinned(g, i) {
			return
		}
	}
}

// RUnlock releases stripe i from shared mode.
func (t *Table) RUnlock(i int) { t.gen.Load().stripes[i].mu.RUnlock() }

// LockV acquires stripe i exclusively iff the current generation is still
// version; it returns false — holding nothing — when a resize has retired
// the generation the caller planned against. Exclusive acquisitions run
// inside Enter/Exit sessions, which the resizer excludes via the gate, so
// once a session holds the gate the version cannot change under it; the
// check still runs per call because the plan may predate the Enter.
func (t *Table) LockV(i int, version uint64) bool {
	for {
		g := t.gen.Load()
		if g.version != version {
			return false
		}
		if t.lockPinned(g, i) {
			return true
		}
	}
}

// RLockV is LockV for shared mode.
func (t *Table) RLockV(i int, version uint64) bool {
	for {
		g := t.gen.Load()
		if g.version != version {
			return false
		}
		if t.rlockPinned(g, i) {
			return true
		}
	}
}

// RLockKey acquires the stripe owning key in shared mode and returns its
// index for the matching RUnlock — the single-key fast path. It recomputes
// the stripe per generation internally, so it never fails and needs no
// version from the caller.
func (t *Table) RLockKey(key uint64) int {
	h := mix(key)
	for {
		g := t.gen.Load()
		i := int(h & g.mask)
		if t.rlockPinned(g, i) {
			return i
		}
	}
}

// LockKey acquires the stripe owning key in exclusive mode and returns its
// index for the matching Unlock. It is RLockKey's exclusive twin — same
// per-generation revalidation, no version needed — for single-key writers
// that must order side effects per key (tkv's log append: the record is
// numbered before the stripe is released, so log order is commit order for
// every key). Single-stripe exclusive holds need no
// Enter/Exit session: the resizer waits them out in its stripe sweep, and
// Freeze deliberately does not exclude them (they are atomic per shard by
// the STM, exactly like the shared holders Freeze leaves undisturbed).
func (t *Table) LockKey(key uint64) int {
	h := mix(key)
	for {
		g := t.gen.Load()
		i := int(h & g.mask)
		if t.lockPinned(g, i) {
			return i
		}
	}
}

// Enter begins an exclusive multi-stripe session: callers that take stripes
// in exclusive mode must bracket the acquisition with Enter/Exit (once per
// session, before the first stripe) to be visible to Freeze and to the
// resizer. Sessions never exclude each other — their stripes do that, per
// key.
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
// of a walk over every stripe. Shared single-stripe holders are unaffected
// — Freeze pairs with callers whose own reads are atomic by other means
// (tkv's per-shard snapshot transactions) and only need multi-phase writers
// excluded. Freezes exclude each other (and resizes); contended freezes
// count as shared waits.
func (t *Table) Freeze() {
	if !t.gate.TryLock() {
		t.sharedWaits.Add(1)
		t.gate.Lock()
	}
}

// Unfreeze releases a Freeze.
func (t *Table) Unfreeze() { t.gate.Unlock() }

// Waits reports the contended acquisition counts (shared, exclusive). They
// are continuous across resizes.
func (t *Table) Waits() (shared, excl uint64) {
	return t.sharedWaits.Load(), t.exclWaits.Load()
}

// Resize installs a stripe table of n stripes (rounded up to a power of
// two), preserving the wait counters and bumping Version. It takes the
// session gate exclusively (no batch session or snapshot is in flight, and
// none can begin), then sweeps the old stripes in ascending order to wait
// out every single-stripe holder — the same global order every session
// follows, so the sweep cannot deadlock against them. Holders that were
// blocked on a retired stripe wake, notice the generation changed, and
// retry against the new table; version-checked acquisitions refuse and
// make their caller replan. A no-op when n already matches.
func (t *Table) Resize(n int) {
	p := roundPow2(max(n, 1))
	t.gate.Lock()
	old := t.gen.Load()
	if len(old.stripes) == p {
		t.gate.Unlock()
		return
	}
	// Wait out every holder. The gate excludes sessions, so these are
	// single-stripe holders only; the resizer's own waits are not traffic
	// contention and stay uncounted.
	for i := range old.stripes {
		old.stripes[i].mu.Lock()
	}
	t.gen.Store(&generation{
		stripes: make([]stripe, p),
		mask:    uint64(p - 1),
		version: old.version + 1,
	})
	// Release the retired stripes so blocked acquirers wake up and retry
	// against the new generation.
	for i := range old.stripes {
		old.stripes[i].mu.Unlock()
	}
	t.resizes.Add(1)
	t.gate.Unlock()
}

// EnableAdapt turns on the Adapt policy with the given configuration
// (bounds are rounded to powers of two and ordered).
func (t *Table) EnableAdapt(cfg AdaptConfig) {
	t.adaptMu.Lock()
	defer t.adaptMu.Unlock()
	if cfg.MinStripes <= 0 {
		cfg.MinStripes = 1
	}
	cfg.MinStripes = roundPow2(cfg.MinStripes)
	cfg.MaxStripes = roundPow2(max(cfg.MaxStripes, cfg.MinStripes))
	if cfg.MinSampleOps == 0 {
		cfg.MinSampleOps = 256
	}
	t.adaptCfg = cfg
	t.adaptOn = true
}

// Adapt applies the resize policy: the caller supplies its cumulative
// operation count over this table (tkv passes the shard's committed
// transaction count), Adapt compares the wait delta against the op delta
// since the previous call, and doubles the stripe count when waits-per-op
// crossed GrowWaitsPerOp or halves it when the rate fell to
// ShrinkWaitsPerOp — within the configured bounds. It reports whether it
// resized. A no-op until EnableAdapt and while the op delta is below
// MinSampleOps.
func (t *Table) Adapt(ops uint64) bool {
	t.adaptMu.Lock()
	defer t.adaptMu.Unlock()
	if !t.adaptOn {
		return false
	}
	dOps := ops - t.lastOps
	if dOps < t.adaptCfg.MinSampleOps {
		return false
	}
	shared, excl := t.Waits()
	waits := shared + excl
	dWaits := waits - t.lastWaits
	t.lastOps, t.lastWaits = ops, waits
	rate := float64(dWaits) / float64(dOps)
	n := t.Stripes()
	switch {
	case rate >= t.adaptCfg.GrowWaitsPerOp && n < t.adaptCfg.MaxStripes:
		t.Resize(n * 2)
		return true
	case rate <= t.adaptCfg.ShrinkWaitsPerOp && n > t.adaptCfg.MinStripes:
		t.Resize(n / 2)
		return true
	}
	return false
}
