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

// Queue is a transactional FIFO queue over T, the structure at the heart of
// the intruder kernel (a single dequeue point contended by all threads —
// the paper's Figure 1(b) motivation and the case where Shrink's
// serialization shines).
type Queue[T any] struct {
	head *stm.TVar[*qNode[T]] // next to dequeue
	tail *stm.TVar[*qNode[T]] // last enqueued (nil when empty)
	// size counts the elements. Only the tests read it, but every Enqueue
	// and Dequeue writes it, so the two ends of a queue conflict, and the
	// kernels built on it keep that shape.
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
