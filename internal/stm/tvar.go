package stm

import (
	"unsafe"
)

// TVar is a typed transactional variable: the same orec-backed memory word
// as Var, but with the value stored as an unboxed *T. The typed accessors
// ReadT and WriteT move values through the engines as a single pointer word,
// so an uncontended typed read performs zero heap allocations — the untyped
// Var API pays an interface-boxing allocation per written value and a type
// assertion per read, which is measurable tax on exactly the hot path the
// Shrink scheduler is protecting.
//
// A TVar participates in every substrate mechanism through its embedded
// word: schedulers and predictors see it as a *Var (via Word), so conflict
// prediction, visible-write queries and Bloom-filter hashing are unchanged.
type TVar[T any] struct {
	word Var
}

// NewT returns a typed Var holding initial at version 0.
func NewT[T any](initial T) *TVar[T] {
	return &TVar[T]{word: Var{val: unsafe.Pointer(&initial)}}
}

// NewTRef returns a typed Var whose initial value is the cell *p, without
// spilling a copy. The caller cedes ownership: *p must never be mutated
// after the call (the cell is the variable's live value until overwritten).
func NewTRef[T any](p *T) *TVar[T] {
	return &TVar[T]{word: Var{val: unsafe.Pointer(p)}}
}

// InitRef is NewTRef in place: it makes the zero TVar v, typically a field
// embedded by value in a node, hold the cell *p at version 0, so a structure
// can lay a node's variables out in one allocation. It must run before v is
// shared and at most once; the ownership rule is NewTRef's.
func (v *TVar[T]) InitRef(p *T) { v.word.val = unsafe.Pointer(p) }

// Word returns the underlying engine word, for scheduler hooks, predictors
// and lock queries. Reading or writing the word through the untyped
// Tx.Read/Tx.Write shims is illegal (the pointee is a *T, not an *any);
// value access must go through ReadT/WriteT.
func (v *TVar[T]) Word() *Var { return &v.word }

// ID returns the variable's identity, its engine word's address (Var.ID).
func (v *TVar[T]) ID() uint64 { return v.word.ID() }

// LockedByOther reports whether the variable is write-locked by a thread
// other than the given one (the visible-writes primitive, typed flavor).
func (v *TVar[T]) LockedByOther(threadID int) bool { return v.word.LockedByOther(threadID) }

// ReadT returns the value of v as observed by the transaction. The value
// travels as a pointer through the engine's validated read protocol and is
// dereferenced exactly once here: no boxing, no type assertion.
func ReadT[T any](tx Tx, v *TVar[T]) (T, error) {
	p, err := tx.ReadPtr(&v.word)
	if err != nil {
		var zero T
		return zero, err
	}
	return *(*T)(p), nil
}

// WriteT sets the value of v in the transaction. The value is spilled to one
// heap cell (the engines retain the pointer in their write logs past the
// call), which matches the single allocation the boxed API paid — writes
// gain lock-path savings only, reads are where boxing is eliminated.
func WriteT[T any](tx Tx, v *TVar[T], val T) error {
	return tx.WritePtr(&v.word, unsafe.Pointer(&val))
}

// WriteRefT sets the value of v to the cell *p without spilling a copy —
// the caller's own heap cell becomes the committed value, which lets a
// serving path that already interns or pools immutable value cells make a
// whole update transaction allocation-free (WriteT's spill is that path's
// last per-op allocation). The caller cedes ownership: *p must never be
// mutated after the call, whether the transaction commits or aborts.
func WriteRefT[T any](tx Tx, v *TVar[T], p *T) error {
	return tx.WritePtr(&v.word, unsafe.Pointer(p))
}
