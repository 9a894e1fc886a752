package stmds

import "github.com/shrink-tm/shrink/internal/stm"

// The methods below are the tests' oracles and probes: no program calls
// them, so they are compiled into the package's tests only.

// ForEach is ForEachRO for update transactions.
func (m *HashMap[V]) ForEach(tx stm.Tx, fn func(key uint64, val V) bool) error {
	for i := range m.buckets {
		n, err := stm.ReadRefT(tx, &m.buckets[i])
		if err != nil {
			return err
		}
		for ; n != nil; n = n.next {
			v, err := stm.ReadT(tx, &n.val)
			if err != nil {
				return err
			}
			if !fn(n.key, v) {
				return nil
			}
		}
	}
	return nil
}

// ContainsRO reports whether key is present, under the GetRO protocol.
func (m *HashMap[V]) ContainsRO(tx *stm.ROTx, key uint64) (bool, error) {
	n, err := m.findRO(tx, key)
	return err == nil && n != nil, err
}

// Keys returns all keys (bucket order, newest first within a bucket).
func (m *HashMap[V]) Keys(tx stm.Tx) ([]uint64, error) {
	var out []uint64
	for i := range m.buckets {
		n, err := stm.ReadRefT(tx, &m.buckets[i])
		if err != nil {
			return nil, err
		}
		for ; n != nil; n = n.next {
			out = append(out, n.key)
		}
	}
	return out, nil
}

// Keys returns all keys in ascending order (read-only traversal).
func (t *RBTree[V]) Keys(tx stm.Tx) ([]int64, error) {
	var out []int64
	err := t.walk(tx, &t.root, func(n *rbNode[V]) { out = append(out, n.key) })
	return out, err
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
		n, err := stm.ReadRefTRO(tx, slot)
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

// Delete removes key, reporting whether it was present.
func (l *SortedList[V]) Delete(tx stm.Tx, key int64) (bool, error) {
	slot, n, err := l.find(tx, key)
	if err != nil {
		return false, err
	}
	if n == nil || n.key != key {
		return false, nil
	}
	next, err := stm.ReadRefT(tx, &n.next)
	if err != nil {
		return false, err
	}
	if err := stm.WriteRefT(tx, slot, next); err != nil {
		return false, err
	}
	// n lets go of its successor, as a removed tree node lets go of its
	// children.
	if next != nil {
		if err := stm.WriteRefT(tx, &n.next, nil); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Size counts the elements.
func (l *SortedList[V]) Size(tx stm.Tx) (int, error) {
	count := 0
	n, err := stm.ReadRefT(tx, &l.head)
	if err != nil {
		return 0, err
	}
	for n != nil {
		count++
		if n, err = stm.ReadRefT(tx, &n.next); err != nil {
			return 0, err
		}
	}
	return count, nil
}

// Keys returns the keys in ascending order.
func (l *SortedList[V]) Keys(tx stm.Tx) ([]int64, error) {
	var out []int64
	n, err := stm.ReadRefT(tx, &l.head)
	if err != nil {
		return nil, err
	}
	for n != nil {
		out = append(out, n.key)
		if n, err = stm.ReadRefT(tx, &n.next); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Size counts the elements, walking from the head.
func (q *Queue[T]) Size(tx stm.Tx) (int, error) {
	size := 0
	n, err := stm.ReadRefT(tx, &q.head)
	for ; err == nil && n != nil; size++ {
		n, err = stm.ReadRefT(tx, &n.next)
	}
	return size, err
}

// Size counts the entries (reads every bucket).
func (m *HashMap[V]) Size(tx stm.Tx) (int, error) {
	total := 0
	for i := range m.buckets {
		n, err := stm.ReadRefT(tx, &m.buckets[i])
		if err != nil {
			return 0, err
		}
		for ; n != nil; n = n.next {
			total++
		}
	}
	return total, nil
}
