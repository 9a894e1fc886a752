package stmds

import (
	"github.com/shrink-tm/shrink/internal/stm"
)

// SortedList is a transactional sorted singly-linked list mapping int64
// keys to V, the classic STM linked-list microstructure (and genome's
// segment chain). Operations read the prefix up to the key's position, so
// write transactions conflict with anything modifying that prefix —
// deliberately coarse, like the original.
//
// A list must not be copied: its empty links point at its own leaf field.
type SortedList[V any] struct {
	head stm.TVar[*listNode[V]]
	leaf *listNode[V] // always nil: the cell behind every empty link
}

// listNode holds its vars by value, and its own address in the immutable
// cell self, which the link pointing at it publishes. Unlike a hash-map
// chain, a list's links are vars: an insert or delete writes the one link
// before its key.
type listNode[V any] struct {
	key  int64
	self *listNode[V]
	val  stm.TVar[V]
	next stm.TVar[*listNode[V]]
}

// NewSortedList returns an empty list.
func NewSortedList[V any]() *SortedList[V] {
	l := &SortedList[V]{}
	l.head.InitRef(&l.leaf)
	return l
}

// cell returns the immutable cell a link publishes to point at n (nil: an
// empty link).
func (l *SortedList[V]) cell(n *listNode[V]) **listNode[V] {
	if n == nil {
		return &l.leaf
	}
	return &n.self
}

func (l *SortedList[V]) find(tx stm.Tx, key int64) (slot *stm.TVar[*listNode[V]], n *listNode[V], err error) {
	slot = &l.head
	for {
		n, err = stm.ReadT(tx, slot)
		if err != nil {
			return nil, nil, err
		}
		if n == nil || n.key >= key {
			return slot, n, nil
		}
		slot = &n.next
	}
}

// Contains reports whether key is present.
func (l *SortedList[V]) Contains(tx stm.Tx, key int64) (bool, error) {
	_, n, err := l.find(tx, key)
	if err != nil {
		return false, err
	}
	return n != nil && n.key == key, nil
}

// Get returns the value stored under key.
func (l *SortedList[V]) Get(tx stm.Tx, key int64) (V, bool, error) {
	var zero V
	_, n, err := l.find(tx, key)
	if err != nil {
		return zero, false, err
	}
	if n == nil || n.key != key {
		return zero, false, nil
	}
	v, err := stm.ReadT(tx, &n.val)
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// findRO walks to the first node with key >= key (or nil) under the
// snapshot-read protocol.
func (l *SortedList[V]) findRO(tx *stm.ROTx, key int64) (*listNode[V], error) {
	slot := &l.head
	for {
		n, err := stm.ReadTRO(tx, slot)
		if err != nil {
			return nil, err
		}
		if n == nil || n.key >= key {
			return n, nil
		}
		slot = &n.next
	}
}

// ContainsRO reports whether key is present, for read-only snapshot
// transactions.
func (l *SortedList[V]) ContainsRO(tx *stm.ROTx, key int64) (bool, error) {
	n, err := l.findRO(tx, key)
	return err == nil && n != nil && n.key == key, err
}

// GetRO returns the value stored under key, for read-only snapshot
// transactions.
func (l *SortedList[V]) GetRO(tx *stm.ROTx, key int64) (V, bool, error) {
	var zero V
	n, err := l.findRO(tx, key)
	if err != nil || n == nil || n.key != key {
		return zero, false, err
	}
	v, err := stm.ReadTRO(tx, &n.val)
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// Insert adds key (with val), reporting whether it was new.
func (l *SortedList[V]) Insert(tx stm.Tx, key int64, val V) (bool, error) {
	slot, n, err := l.find(tx, key)
	if err != nil {
		return false, err
	}
	if n != nil && n.key == key {
		return false, nil
	}
	node := &listNode[V]{key: key}
	node.self = node
	v := val // a copy, so that a key already present pays for no cell
	node.val.InitRef(&v)
	node.next.InitRef(l.cell(n))
	if err := stm.WriteRefT(tx, slot, &node.self); err != nil {
		return false, err
	}
	return true, nil
}

// Delete removes key, reporting whether it was present.
func (l *SortedList[V]) Delete(tx stm.Tx, key int64) (bool, error) {
	slot, n, err := l.find(tx, key)
	if err != nil {
		return false, err
	}
	if n == nil || n.key != key {
		return false, nil
	}
	next, err := stm.ReadT(tx, &n.next)
	if err != nil {
		return false, err
	}
	if err := stm.WriteRefT(tx, slot, l.cell(next)); err != nil {
		return false, err
	}
	// n lets go of its successor, as a removed hmNode does.
	if next != nil {
		if err := stm.WriteRefT(tx, &n.next, &l.leaf); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Size counts the elements.
func (l *SortedList[V]) Size(tx stm.Tx) (int, error) {
	count := 0
	n, err := stm.ReadT(tx, &l.head)
	if err != nil {
		return 0, err
	}
	for n != nil {
		count++
		if n, err = stm.ReadT(tx, &n.next); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// Keys returns the keys in ascending order.
func (l *SortedList[V]) Keys(tx stm.Tx) ([]int64, error) {
	var out []int64
	n, err := stm.ReadT(tx, &l.head)
	if err != nil {
		return nil, err
	}
	for n != nil {
		out = append(out, n.key)
		if n, err = stm.ReadT(tx, &n.next); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Queue is a transactional FIFO queue over T, the structure at the heart of
// the intruder kernel (a single dequeue point contended by all threads —
// the paper's Figure 1(b) motivation and the case where Shrink's
// serialization shines).
type Queue[T any] struct {
	head *stm.TVar[*qNode[T]] // next to dequeue
	tail *stm.TVar[*qNode[T]] // last enqueued (nil when empty)
	size *stm.TVar[int]
}

type qNode[T any] struct {
	val  T
	next *stm.TVar[*qNode[T]]
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{
		head: stm.NewT[*qNode[T]](nil),
		tail: stm.NewT[*qNode[T]](nil),
		size: stm.NewT(0),
	}
}

// Enqueue appends val.
func (q *Queue[T]) Enqueue(tx stm.Tx, val T) error {
	node := &qNode[T]{val: val, next: stm.NewT[*qNode[T]](nil)}
	tail, err := stm.ReadT(tx, q.tail)
	if err != nil {
		return err
	}
	if tail == nil {
		if err := stm.WriteT(tx, q.head, node); err != nil {
			return err
		}
	} else if err := stm.WriteT(tx, tail.next, node); err != nil {
		return err
	}
	if err := stm.WriteT(tx, q.tail, node); err != nil {
		return err
	}
	return q.addSize(tx, 1)
}

// Dequeue removes and returns the oldest element; ok is false when empty.
func (q *Queue[T]) Dequeue(tx stm.Tx) (val T, ok bool, err error) {
	var zero T
	head, err := stm.ReadT(tx, q.head)
	if err != nil {
		return zero, false, err
	}
	if head == nil {
		return zero, false, nil
	}
	next, err := stm.ReadT(tx, head.next)
	if err != nil {
		return zero, false, err
	}
	if err := stm.WriteT(tx, q.head, next); err != nil {
		return zero, false, err
	}
	if next == nil {
		if err := stm.WriteT(tx, q.tail, (*qNode[T])(nil)); err != nil {
			return zero, false, err
		}
	}
	if err := q.addSize(tx, -1); err != nil {
		return zero, false, err
	}
	return head.val, true, nil
}

func (q *Queue[T]) addSize(tx stm.Tx, d int) error {
	n, err := stm.ReadT(tx, q.size)
	if err != nil {
		return err
	}
	return stm.WriteT(tx, q.size, n+d)
}

// Size returns the element count.
func (q *Queue[T]) Size(tx stm.Tx) (int, error) {
	return stm.ReadT(tx, q.size)
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

// Word returns the i-th cell's engine word (for predictors and lock
// queries).
func (a *Array[T]) Word(i int) *stm.Var { return a.cells[i].Word() }

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
