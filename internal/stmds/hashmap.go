package stmds

import (
	"github.com/shrink-tm/shrink/internal/stm"
)

// HashMap is a transactional hash map from uint64 keys to V, with a fixed
// number of buckets, each a transactional sorted singly-linked list. A
// fixed bucket count keeps resizes (which would conflict with every
// concurrent operation) out of the picture, like the hash tables in the
// STAMP kernels.
//
// The table holds its bucket vars by value and a node holds its own, so a
// key costs one object besides its value cell, a bucket none, and a Get is
// four dependent loads: bucket slot, node, value cell, the value's bytes.
//
// A map must not be copied: its empty links point at its own leaf field.
type HashMap[V any] struct {
	buckets []stm.TVar[*hmNode[V]] // each holds the head of a sorted chain
	mask    uint64
	// leaf is always nil. Its address is the immutable cell behind every
	// empty link: a fresh bucket, a chain's tail, an unlinked node.
	leaf *hmNode[V]
}

// hmNode lays its two vars out by value, as rbNode does: 48 bytes, a bucket
// slot 16. Keys are immutable per node.
type hmNode[V any] struct {
	key uint64
	// self is the node's own address in an immutable cell: the link that
	// points at the node publishes &self, so linking never allocates, and
	// the cell sits beside the key a reader compares next.
	self *hmNode[V]
	val  stm.TVar[V]
	next stm.TVar[*hmNode[V]]
}

// NewHashMap returns a map with at least nBuckets buckets (rounded up to a
// power of two, minimum 16).
func NewHashMap[V any](nBuckets int) *HashMap[V] {
	n := 16
	for n < nBuckets {
		n <<= 1
	}
	m := &HashMap[V]{buckets: make([]stm.TVar[*hmNode[V]], n), mask: uint64(n - 1)}
	for i := range m.buckets {
		m.buckets[i].InitRef(&m.leaf)
	}
	return m
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ (k >> 33)
}

func (m *HashMap[V]) bucket(key uint64) *stm.TVar[*hmNode[V]] {
	return &m.buckets[hashKey(key)&m.mask]
}

// cell returns the immutable cell a link publishes to point at n (nil: an
// empty link).
func (m *HashMap[V]) cell(n *hmNode[V]) **hmNode[V] {
	if n == nil {
		return &m.leaf
	}
	return &n.self
}

// insert links a new node holding the cell *val into slot, ahead of next.
func (m *HashMap[V]) insert(tx stm.Tx, slot *stm.TVar[*hmNode[V]], key uint64, val *V, next *hmNode[V]) (bool, error) {
	n := &hmNode[V]{key: key}
	n.self = n
	n.val.InitRef(val)
	n.next.InitRef(m.cell(next))
	if err := stm.WriteRefT(tx, slot, &n.self); err != nil {
		return false, err
	}
	return true, nil
}

// find locates key's node in its bucket, returning the var pointing at it
// (for unlinking) and the node, or the insertion point (prevSlot, nil).
func (m *HashMap[V]) find(tx stm.Tx, key uint64) (slot *stm.TVar[*hmNode[V]], n *hmNode[V], err error) {
	slot = m.bucket(key)
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

// Get returns the value under key.
func (m *HashMap[V]) Get(tx stm.Tx, key uint64) (V, bool, error) {
	var zero V
	_, n, err := m.find(tx, key)
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

// Contains reports whether key is present.
func (m *HashMap[V]) Contains(tx stm.Tx, key uint64) (bool, error) {
	_, ok, err := m.Get(tx, key)
	return ok, err
}

// Put stores val under key, reporting whether the key was new.
func (m *HashMap[V]) Put(tx stm.Tx, key uint64, val V) (bool, error) {
	slot, n, err := m.find(tx, key)
	if err != nil {
		return false, err
	}
	if n != nil && n.key == key {
		if err := stm.WriteT(tx, &n.val, val); err != nil {
			return false, err
		}
		return false, nil
	}
	// A copy, so that val escapes on this path only: the address of the
	// parameter itself would cost the overwrite above an allocation too.
	v := val
	return m.insert(tx, slot, key, &v, n)
}

// PutRef stores the cell *val under key without spilling a copy, reporting
// whether the key was new. It is Put for callers that already hold the
// value in an immutable heap cell (an interned value, a pooled write-path
// cell): the cell itself becomes the committed value, so the operation
// adds no allocation of its own on the overwrite path. The caller cedes
// ownership — *val must never be mutated after the call.
func (m *HashMap[V]) PutRef(tx stm.Tx, key uint64, val *V) (bool, error) {
	slot, n, err := m.find(tx, key)
	if err != nil {
		return false, err
	}
	if n != nil && n.key == key {
		if err := stm.WriteRefT(tx, &n.val, val); err != nil {
			return false, err
		}
		return false, nil
	}
	return m.insert(tx, slot, key, val, n)
}

// PutIfAbsent stores val under key only if absent, reporting whether it
// stored (genome's segment de-duplication pattern).
func (m *HashMap[V]) PutIfAbsent(tx stm.Tx, key uint64, val V) (bool, error) {
	slot, n, err := m.find(tx, key)
	if err != nil {
		return false, err
	}
	if n != nil && n.key == key {
		return false, nil
	}
	v := val // as in Put: absent keys alone pay for the cell
	return m.insert(tx, slot, key, &v, n)
}

// Delete removes key, reporting whether it was present.
func (m *HashMap[V]) Delete(tx stm.Tx, key uint64) (bool, error) {
	slot, n, err := m.find(tx, key)
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
	if err := stm.WriteRefT(tx, slot, m.cell(next)); err != nil {
		return false, err
	}
	// n lets go of its successor. A removed node stays referenced for a
	// while (a reader standing on it, a stale slot of some read log) and
	// with the link intact would keep alive the node after it, which when
	// removed keeps the one after that: garbage chained without end.
	if next != nil {
		if err := stm.WriteRefT(tx, &n.next, &m.leaf); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Size counts the entries (reads every bucket).
func (m *HashMap[V]) Size(tx stm.Tx) (int, error) {
	total := 0
	for i := range m.buckets {
		n, err := stm.ReadT(tx, &m.buckets[i])
		if err != nil {
			return 0, err
		}
		for n != nil {
			total++
			if n, err = stm.ReadT(tx, &n.next); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// ForEach calls fn for every key/value pair (bucket order, ascending keys
// within a bucket), stopping early when fn returns false. fn runs inside the
// transaction: if the enclosing Atomically retries, fn is invoked again from
// the start, so callers that accumulate state must reset it at the top of
// the transaction body (or collect into a buffer and consume it after
// commit, as tkv's snapshot path does).
func (m *HashMap[V]) ForEach(tx stm.Tx, fn func(key uint64, val V) bool) error {
	return m.Range(tx, 0, ^uint64(0), fn)
}

// Range calls fn, under the ForEach contract, for every pair with
// lo <= key <= hi. Keys are hashed across buckets, so Range scans the whole
// table and filters — it is a snapshot/iteration primitive, O(buckets+size),
// not an indexed range query (use SortedList or RBTree for those). Value
// vars are only read for keys inside the range, keeping the read set of a
// narrow Range small.
func (m *HashMap[V]) Range(tx stm.Tx, lo, hi uint64, fn func(key uint64, val V) bool) error {
	for i := range m.buckets {
		n, err := stm.ReadT(tx, &m.buckets[i])
		if err != nil {
			return err
		}
		for n != nil && n.key <= hi {
			if n.key >= lo {
				v, err := stm.ReadT(tx, &n.val)
				if err != nil {
					return err
				}
				if !fn(n.key, v) {
					return nil
				}
			}
			if n, err = stm.ReadT(tx, &n.next); err != nil {
				return err
			}
		}
	}
	return nil
}

// findRO locates key's node (or nil) under the snapshot-read protocol.
func (m *HashMap[V]) findRO(tx *stm.ROTx, key uint64) (*hmNode[V], error) {
	slot := m.bucket(key)
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

// GetRO is Get for read-only snapshot transactions: every node hop and the
// value read validate inline against the snapshot, with no read-log
// bookkeeping — the tkv serving path's Get runs on this.
func (m *HashMap[V]) GetRO(tx *stm.ROTx, key uint64) (V, bool, error) {
	var zero V
	n, err := m.findRO(tx, key)
	if err != nil || n == nil || n.key != key {
		return zero, false, err
	}
	v, err := stm.ReadTRO(tx, &n.val)
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

// Probe is one key's GetRO path walked outside any transaction, a hop at a
// time, so that a caller holding several keys can take every key's first hop,
// then every key's second, and have their cache misses overlap instead of
// queueing behind one another (tkv's Store.Warm). It validates nothing: what
// it ends on is a hint that a concurrent writer may already have replaced,
// good for pulling lines into cache and for nothing a reader returns.
type Probe[V any] struct {
	key  uint64
	link **hmNode[V] // the cell the key's bucket slot pointed at
}

// Probe takes the first hop of key's path: it loads the bucket slot.
func (m *HashMap[V]) Probe(key uint64) Probe[V] {
	return Probe[V]{key: key, link: (**hmNode[V])(m.bucket(key).Word().LoadPtr())}
}

// Cell takes the rest of the path's hops but the last: it walks the bucket's
// chain to key's node and returns the node's value cell without reading it
// (nil: key absent). In a table with about a bucket per key this is usually
// one load.
func (p Probe[V]) Cell() *V {
	n := *p.link
	for n != nil && n.key < p.key {
		n = *(**hmNode[V])(n.next.Word().LoadPtr())
	}
	if n == nil || n.key != p.key {
		return nil
	}
	return (*V)(n.val.Word().LoadPtr())
}

// ContainsRO reports whether key is present, under the GetRO protocol.
func (m *HashMap[V]) ContainsRO(tx *stm.ROTx, key uint64) (bool, error) {
	n, err := m.findRO(tx, key)
	return err == nil && n != nil && n.key == key, err
}

// SizeRO counts the entries under a read-only snapshot transaction. Unlike
// Size, the whole-table scan costs no read-log growth: the snapshot itself
// is the consistency proof.
func (m *HashMap[V]) SizeRO(tx *stm.ROTx) (int, error) {
	total := 0
	for i := range m.buckets {
		n, err := stm.ReadTRO(tx, &m.buckets[i])
		if err != nil {
			return 0, err
		}
		for n != nil {
			total++
			if n, err = stm.ReadTRO(tx, &n.next); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// ForEachRO is ForEach for read-only snapshot transactions, under the same
// retry contract (fn may run again from the start if the enclosing
// AtomicallyRO restarts on a fresher snapshot).
func (m *HashMap[V]) ForEachRO(tx *stm.ROTx, fn func(key uint64, val V) bool) error {
	return m.RangeRO(tx, 0, ^uint64(0), fn)
}

// RangeRO is Range for read-only snapshot transactions.
func (m *HashMap[V]) RangeRO(tx *stm.ROTx, lo, hi uint64, fn func(key uint64, val V) bool) error {
	for i := range m.buckets {
		n, err := stm.ReadTRO(tx, &m.buckets[i])
		if err != nil {
			return err
		}
		for n != nil && n.key <= hi {
			if n.key >= lo {
				v, err := stm.ReadTRO(tx, &n.val)
				if err != nil {
					return err
				}
				if !fn(n.key, v) {
					return nil
				}
			}
			if n, err = stm.ReadTRO(tx, &n.next); err != nil {
				return err
			}
		}
	}
	return nil
}

// Keys returns all keys (bucket order, ascending within buckets).
func (m *HashMap[V]) Keys(tx stm.Tx) ([]uint64, error) {
	var out []uint64
	for i := range m.buckets {
		n, err := stm.ReadT(tx, &m.buckets[i])
		if err != nil {
			return nil, err
		}
		for n != nil {
			out = append(out, n.key)
			if n, err = stm.ReadT(tx, &n.next); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
