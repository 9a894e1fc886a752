// Package stm provides the shared substrate for the software transactional
// memory engines in this repository: transactional variables with versioned
// ownership records, a global version clock, per-thread contexts and
// statistics, and the Scheduler hook interface through which transaction
// scheduling policies such as Shrink are attached.
//
// The substrate implements visible writes: any thread can ask whether a Var
// is currently write-locked by another thread, which is the primitive the
// Shrink scheduler's conflict prediction relies on.
//
// Values are reached one way: through the generic TVar[T], with ReadT and
// WriteT inside an update transaction (Thread.Atomically) and ReadTRO inside
// a read-only one (Thread.AtomicallyRO); ReadRefT, WriteRefT and ReadRefTRO
// move a value's cell itself. A value moves through the engines as a single
// unboxed pointer word, so a read performs no interface boxing and no type
// assertion (an uncontended read is allocation-free). Scheduler and
// predictor hooks see a TVar's embedded engine word, the *Var.
package stm

import (
	"sync/atomic"
	"unsafe"
)

// Var is a transactional memory word. It pairs a versioned ownership record
// (orec) with the value storage. The orec word encodes either a commit
// version (even values) or a writer lock with the owner's thread ID (odd
// values). The value is a single atomic pointer word, so a reader racing
// with a writeback observes either the old or the new value, never a torn
// one; the STM protocol's version validation then decides whether the read
// is consistent.
//
// A Var lives only inside a TVar[T] (see tvar.go), which fixes the pointee
// type at *T; the engines move the pointer through their logs without
// inspecting it.
type Var struct {
	meta atomic.Uint64
	val  unsafe.Pointer
}

// ID returns the identity Bloom-filter based predictors hash: the Var's
// address, as in the paper's Algorithm 1. It is non-zero, distinct among Vars
// alive together and stable for a Var's lifetime (the collector does not
// move heap objects); a freed Var's identity may serve a later one.
func (v *Var) ID() uint64 { return uint64(uintptr(unsafe.Pointer(v))) }

// Orec word encoding:
//
//	even: version<<9 | incarnation<<1   (unlocked, last committed at `version`)
//	odd:  (owner+1)<<1 | 1              (write-locked by thread `owner`)
//
// The incarnation field exists for the abort path of write-through engines
// (tiny): an abort restores the pre-lock version, which would make the orec
// word ABA — a reader sampling the word around its value load (SnapshotPtr)
// could observe identical words on both sides of a lock/store-speculative/
// restore cycle and return the never-committed in-place value. Bumping the
// incarnation on UnlockRestore makes the restored word differ from every
// word observed before the abort's own lock cycle, so the sampling detects
// the interleaving and retries. This is TinySTM's incarnation-number
// technique; 8 bits suffice because defeating it would take 256 aborts of
// the same Var inside one racing read's load window. Unlock after a commit
// resets the incarnation — the fresh commit version already makes the word
// unique.
const (
	lockBit  = 1
	incBits  = 8
	incShift = 1
	incMask  = uint64(1<<incBits-1) << incShift
	verShift = incShift + incBits
)

func lockWord(owner int) uint64 { return (uint64(owner)+1)<<1 | lockBit }

func versionWord(version uint64) uint64 { return version << verShift }

// IsLocked reports whether the orec word m encodes a writer lock.
func IsLocked(m uint64) bool { return m&lockBit != 0 }

// OwnerOf returns the thread ID encoded in a locked orec word. The result is
// meaningless if IsLocked(m) is false.
func OwnerOf(m uint64) int { return int(m>>1) - 1 }

// VersionOf returns the commit version encoded in an unlocked orec word
// (the incarnation field is masked out). The result is meaningless if
// IsLocked(m) is true.
func VersionOf(m uint64) uint64 { return m >> verShift }

// Meta returns the current raw orec word.
func (v *Var) Meta() uint64 { return v.meta.Load() }

// LockedByOther reports whether the Var is currently write-locked by a thread
// other than the given one. This is the "visible writes" primitive used by
// prediction-based schedulers: Shrink consults it for every address in a
// starting transaction's predicted access sets.
func (v *Var) LockedByOther(threadID int) bool {
	m := v.meta.Load()
	return IsLocked(m) && OwnerOf(m) != threadID
}

// LockedBy reports whether the Var is currently write-locked by the given
// thread.
func (v *Var) LockedBy(threadID int) bool {
	m := v.meta.Load()
	return IsLocked(m) && OwnerOf(m) == threadID
}

// TryLock attempts to transition the orec from the observed unlocked word m
// to a lock owned by threadID. It fails if m encodes a lock (stealing another
// thread's lock is never legal) or if the orec changed concurrently.
func (v *Var) TryLock(m uint64, threadID int) bool {
	if IsLocked(m) {
		return false
	}
	return v.meta.CompareAndSwap(m, lockWord(threadID))
}

// Unlock releases a writer lock, stamping the Var with the given commit
// version. The caller must hold the lock.
func (v *Var) Unlock(version uint64) { v.meta.Store(versionWord(version)) }

// UnlockRestore releases a writer lock, restoring a previously observed
// unlocked orec word (used on abort, where the version must not advance)
// with the incarnation field bumped, so that value samplers racing with the
// lock/restore cycle cannot observe an unchanged word (see the encoding
// comment).
func (v *Var) UnlockRestore(oldMeta uint64) {
	v.meta.Store(oldMeta&^incMask | (oldMeta+1<<incShift)&incMask)
}

// LoadPtr returns the current value pointer without any consistency checks.
// Engines must validate the orec around the load.
func (v *Var) LoadPtr() unsafe.Pointer { return atomic.LoadPointer(&v.val) }

// StorePtr replaces the value pointer. Engines must hold the writer lock (or
// be initializing the Var) when calling it.
func (v *Var) StorePtr(p unsafe.Pointer) { atomic.StorePointer(&v.val, p) }

// SnapshotPtr returns the value pointer and the orec word observed around
// it, retrying until a consistent pair is seen. The returned meta may encode
// a lock; the caller decides how to handle that.
func (v *Var) SnapshotPtr() (p unsafe.Pointer, meta uint64) {
	for {
		m1 := v.meta.Load()
		p = atomic.LoadPointer(&v.val)
		m2 := v.meta.Load()
		if m1 == m2 {
			return p, m1
		}
	}
}

// Clock is a global version clock shared by all transactions of one TM
// instance, in the style of TL2 / LSA time-based STMs.
type Clock struct {
	t atomic.Uint64
}

// Now returns the current global version.
func (c *Clock) Now() uint64 { return c.t.Load() }

// Tick advances the clock and returns the new version, which the committing
// transaction uses as its write timestamp.
func (c *Clock) Tick() uint64 { return c.t.Add(1) }
