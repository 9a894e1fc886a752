package stmds

import (
	"github.com/shrink-tm/shrink/internal/stm"
)

// SortedList is a transactional sorted singly-linked list mapping int64
// keys to V, the classic STM linked-list microstructure (and genome's
// segment chain). Operations read the prefix up to the key's position, so
// write transactions conflict with anything modifying that prefix —
// deliberately coarse, like the original.
type SortedList[V any] struct {
	head stm.TVar[listNode[V]] // read and written by reference only; nil when empty
}

// listNode holds its vars by value and its first value's cell, so an insert
// allocates one object (48 bytes when V is a word). Unlike a hash-map chain,
// a list's links are vars, each holding the node it points at (nil: the
// end): an insert or delete writes the one link before its key.
type listNode[V any] struct {
	key  int64
	next stm.TVar[listNode[V]] // read and written by reference only
	val  stm.TVar[V]
	v0   V // the first value's cell
}

// NewSortedList returns an empty list.
func NewSortedList[V any]() *SortedList[V] { return &SortedList[V]{} }

func (l *SortedList[V]) find(tx stm.Tx, key int64) (slot *stm.TVar[listNode[V]], n *listNode[V], err error) {
	slot = &l.head
	for {
		n, err = stm.ReadRefT(tx, slot)
		if err != nil {
			return nil, nil, err
		}
		if n == nil || n.key >= key {
			return slot, n, nil
		}
		slot = &n.next
	}
}

// Insert adds key (with val), reporting whether it was new.
func (l *SortedList[V]) Insert(tx stm.Tx, key int64, val V) (bool, error) {
	slot, n, err := l.find(tx, key)
	if err != nil || n != nil && n.key == key {
		return false, err
	}
	node := &listNode[V]{key: key, v0: val}
	node.val.InitRef(&node.v0)
	node.next.InitRef(n)
	err = stm.WriteRefT(tx, slot, node)
	return err == nil, err
}

// Queue is a transactional FIFO queue over T, the structure at the heart of
// the intruder kernel (a single dequeue point contended by all threads —
// the paper's Figure 1(b) motivation and the case where Shrink's
// serialization shines). Its vars hold the nodes they point at (nil: none),
// so an Enqueue allocates its node and nothing else. Once it holds two
// elements, an Enqueue and a Dequeue touch disjoint vars: the tail and the
// last node's link, the head and the first node's link.
type Queue[T any] struct {
	head stm.TVar[qNode[T]] // next to dequeue (nil when empty)
	tail stm.TVar[qNode[T]] // last enqueued (nil when empty)
}

type qNode[T any] struct {
	next stm.TVar[qNode[T]]
	val  T
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Enqueue appends val.
func (q *Queue[T]) Enqueue(tx stm.Tx, val T) error {
	node := &qNode[T]{val: val}
	tail, err := stm.ReadRefT(tx, &q.tail)
	if err != nil {
		return err
	}
	link := &q.head
	if tail != nil {
		link = &tail.next
	}
	if err := stm.WriteRefT(tx, link, node); err != nil {
		return err
	}
	return stm.WriteRefT(tx, &q.tail, node)
}

// Dequeue removes and returns the oldest element; ok is false when empty.
func (q *Queue[T]) Dequeue(tx stm.Tx) (val T, ok bool, err error) {
	var zero T
	head, err := stm.ReadRefT(tx, &q.head)
	if err != nil || head == nil {
		return zero, false, err
	}
	next, err := stm.ReadRefT(tx, &head.next)
	if err == nil {
		err = stm.WriteRefT(tx, &q.head, next)
	}
	if err == nil && next == nil {
		err = stm.WriteRefT(tx, &q.tail, nil)
	}
	if err != nil {
		return zero, false, err
	}
	return head.val, true, nil
}

// Number constrains the element types Array.Add supports.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Array is a fixed-size transactional array of typed words, the substrate
// for the grid-like kernels (kmeans centroids, labyrinth's maze, ssca2's
// adjacency slots).
type Array[T Number] struct {
	cells []stm.TVar[T]
}

// NewArray returns an array of n cells initialized to the given value. The
// vars sit in the slice by value and start out sharing one immutable cell
// that holds it, so the cost is three allocations whatever n is.
func NewArray[T Number](n int, initial T) *Array[T] {
	a := &Array[T]{cells: make([]stm.TVar[T], n)}
	for i := range a.cells {
		a.cells[i].InitRef(&initial)
	}
	return a
}

// Len returns the number of cells.
func (a *Array[T]) Len() int { return len(a.cells) }

// Get reads cell i.
func (a *Array[T]) Get(tx stm.Tx, i int) (T, error) { return stm.ReadT(tx, &a.cells[i]) }

// Set writes cell i.
func (a *Array[T]) Set(tx stm.Tx, i int, val T) error { return stm.WriteT(tx, &a.cells[i], val) }

// Add adds d to cell i, returning the new value.
func (a *Array[T]) Add(tx stm.Tx, i int, d T) (T, error) {
	n, err := stm.ReadT(tx, &a.cells[i])
	if err != nil {
		return 0, err
	}
	if err := stm.WriteT(tx, &a.cells[i], n+d); err != nil {
		return 0, err
	}
	return n + d, nil
}
