package stm

import "unsafe"

// WriteSet is a read-only, zero-copy view over the write log of a
// transaction attempt. Engines hand it to Scheduler.AfterCommit and
// Scheduler.AfterAbort (and, through Shrink, to the predictor) instead of
// materializing a fresh []*Var per transaction, which is what makes the
// scheduler-attached commit lifecycle allocation-free.
//
// The view aliases the engine's live write log: it is valid only for the
// duration of the hook invocation it is passed to. A hook that needs the
// addresses past that point must copy them out (see predict.Predictor.OnAbort
// for the canonical example).
type WriteSet struct {
	vars []*Var
}

// Len returns the number of entries in the write set.
func (w WriteSet) Len() int { return len(w.vars) }

// At returns the i-th written Var in write-log order.
func (w WriteSet) At(i int) *Var { return w.vars[i] }

// windexLinearMax is the write-set size up to which membership lookups scan
// the log linearly. Almost every transaction in the paper's workloads stays
// below it; the scan is one cache line of pointers and beats any hashing.
const windexLinearMax = 8

// WriteIndex maps *Var to its position in an engine's write log without
// allocating on the hot path. Small write sets (the common case) are probed
// by a linear scan over the logged var pointers; once the log outgrows
// windexLinearMax an open-addressed table over the same entries is built and
// maintained incrementally. Both the entry slice and the table are retained
// across Reset, so a warmed transaction descriptor performs no allocations
// regardless of write-set size.
//
// The index doubles as the storage behind the WriteSet view: the var
// pointers are kept log-ordered, so Set is a zero-copy slice header.
type WriteIndex struct {
	vars   []*Var
	table  []int32 // open-addressed: position+1 into vars, 0 = empty
	tabled bool    // the table is live (len(vars) grew past windexLinearMax)
}

// Reset clears the index for the next transaction attempt, keeping all
// capacity; var pointers past the first logKeep are cleared, not only
// truncated (see logKeep). The table may be left holding stale entries: it
// holds positions, not pointers, is never read while tabled is false, and
// rebuild clears it before reuse.
func (w *WriteIndex) Reset() {
	if len(w.vars) > logKeep {
		clear(w.vars[logKeep:])
	}
	w.vars = w.vars[:0]
	w.tabled = false
}

// At returns the i-th indexed Var in write-log order. The index is the
// single owner of the written-var pointers: engine write logs store only
// the per-entry payload (value/undo pointer, pre-lock orec word) and
// resolve positions through here.
func (w *WriteIndex) At(i int) *Var { return w.vars[i] }

// Set returns the zero-copy WriteSet view over the indexed writes. The view
// is invalidated by the next Reset or Add.
func (w *WriteIndex) Set() WriteSet { return WriteSet{vars: w.vars} }

// Lookup returns the log position of v and whether v has been added.
func (w *WriteIndex) Lookup(v *Var) (int, bool) {
	if !w.tabled {
		for i, x := range w.vars {
			if x == v {
				return i, true
			}
		}
		return 0, false
	}
	mask := uint32(len(w.table) - 1)
	for h := hashVar(v) & mask; ; h = (h + 1) & mask {
		e := w.table[h]
		if e == 0 {
			return 0, false
		}
		if w.vars[e-1] == v {
			return int(e - 1), true
		}
	}
}

// Add appends v to the index and returns its log position. The caller is
// responsible for checking Lookup first; Add does not deduplicate.
func (w *WriteIndex) Add(v *Var) int {
	i := len(w.vars)
	w.vars = append(w.vars, v)
	if !w.tabled {
		if len(w.vars) > windexLinearMax {
			w.rebuild()
		}
		return i
	}
	if 2*len(w.vars) > len(w.table) {
		w.rebuild()
	} else {
		w.insert(int32(i + 1))
	}
	return i
}

// insert places entry e (a position+1 into vars) into the table by linear
// probing. The table is never more than half full, so a free slot exists.
func (w *WriteIndex) insert(e int32) {
	mask := uint32(len(w.table) - 1)
	h := hashVar(w.vars[e-1]) & mask
	for w.table[h] != 0 {
		h = (h + 1) & mask
	}
	w.table[h] = e
}

// rebuild (re)constructs the table over all current entries, growing it to
// keep the load factor at or below one quarter. The table is reused when
// already large enough, so steady-state transactions never allocate here.
func (w *WriteIndex) rebuild() {
	size := 4 * windexLinearMax
	for size < 4*len(w.vars) {
		size <<= 1
	}
	if size <= len(w.table) {
		clear(w.table)
	} else {
		w.table = make([]int32, size)
	}
	w.tabled = true
	for i := range w.vars {
		w.insert(int32(i + 1))
	}
}

// hashVar mixes a Var's address (stable: Vars are heap-allocated and the
// index never outlives a transaction attempt, during which the entries are
// pinned by the log) into a table hash.
func hashVar(v *Var) uint32 {
	h := uint64(uintptr(unsafe.Pointer(v)))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}
