package stm

import (
	"unsafe"
)

// TVar is a transactional variable: an orec-backed engine word (Var) whose
// value is stored as an unboxed *T. ReadT, WriteT and ReadTRO move values
// through the engines as a single pointer word, so an uncontended read
// performs zero heap allocations and no type assertion.
//
// A TVar takes part in every substrate mechanism through its embedded word:
// schedulers and predictors see it as a *Var (via Word), and conflict
// prediction, visible-write queries and Bloom-filter hashing work on that.
type TVar[T any] struct {
	word Var
}

// NewT returns a TVar holding initial at version 0.
func NewT[T any](initial T) *TVar[T] {
	return &TVar[T]{word: Var{val: unsafe.Pointer(&initial)}}
}

// InitRef makes the zero TVar v, typically a field embedded by value in a
// node, hold the cell *p at version 0 without spilling a copy, so a
// structure can lay a node's variables out in one allocation. It must run
// before v is shared and at most once. The caller cedes ownership: *p must
// never be mutated after the call (the cell is the variable's live value
// until overwritten).
func (v *TVar[T]) InitRef(p *T) { v.word.val = unsafe.Pointer(p) }

// Word returns the underlying engine word, for scheduler hooks, predictors
// and lock queries. Its value is reached only through ReadT, WriteT,
// ReadTRO and their Ref twins.
func (v *TVar[T]) Word() *Var { return &v.word }

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

// ReadRefT returns the cell v holds as observed by the transaction, without
// dereferencing it: the read twin of WriteRefT, for a structure whose cell is
// itself what a var links to (a hash-map bucket holds its chain's first node)
// or that carries a cell it read over to a new var. The read is logged as
// ReadT's is. The cell is shared: *p must never be mutated.
func ReadRefT[T any](tx Tx, v *TVar[T]) (*T, error) {
	p, err := tx.ReadPtr(&v.word)
	return (*T)(p), err
}

// WriteT sets the value of v in the transaction. The value is spilled to one
// heap cell, because the engines retain the pointer in their write logs
// past the call.
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
