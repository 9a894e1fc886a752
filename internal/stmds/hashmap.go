package stmds

import (
	"github.com/shrink-tm/shrink/internal/stm"
)

// HashMap is a transactional hash map from uint64 keys to V, with a fixed
// number of buckets, each a var holding a singly-linked chain. A fixed
// bucket count keeps resizes (which would conflict with every concurrent
// operation) out of the picture, like the hash tables in the STAMP kernels.
//
// A chain is immutable but for its value vars: a node's key and link never
// change once the node is published. A bucket var holds its chain's first
// node itself (nil: empty), so an insert pushes a node on the front, and a
// delete re-publishes the bucket with copies of the nodes ahead of the
// removed one in front of the untouched rest. A transaction's read set
// holds a bucket var and the value vars it reads, not a var per hop.
//
// The table holds its bucket vars by value and a node holds its value var,
// so a key costs one 32-byte object besides its value cell, a bucket none,
// and a Get is four dependent loads: bucket slot, node, value cell, the
// value's bytes.
type HashMap[V any] struct {
	buckets []stm.TVar[hmNode[V]] // read and written by reference only
	mask    uint64
}

// hmNode is 32 bytes, a bucket slot 16. Only val is transactional.
type hmNode[V any] struct {
	next *hmNode[V]
	val  stm.TVar[V]
	key  uint64
}

// NewHashMap returns a map with at least nBuckets buckets (rounded up to a
// power of two, minimum 16).
func NewHashMap[V any](nBuckets int) *HashMap[V] {
	n := 16
	for n < nBuckets {
		n <<= 1
	}
	return &HashMap[V]{buckets: make([]stm.TVar[hmNode[V]], n), mask: uint64(n - 1)}
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ (k >> 33)
}

func (m *HashMap[V]) bucket(key uint64) *stm.TVar[hmNode[V]] {
	return &m.buckets[hashKey(key)&m.mask]
}

// seek walks the chain from n to key's node (nil: absent).
func seek[V any](n *hmNode[V], key uint64) *hmNode[V] {
	for n != nil && n.key != key {
		n = n.next
	}
	return n
}

// insert pushes a new node holding the cell *val on the front of slot's
// chain, whose first node is head.
func insert[V any](tx stm.Tx, slot *stm.TVar[hmNode[V]], head *hmNode[V], key uint64, val *V) (bool, error) {
	n := &hmNode[V]{next: head, key: key}
	n.val.InitRef(val)
	if err := stm.WriteRefT(tx, slot, n); err != nil {
		return false, err
	}
	return true, nil
}

// find reads key's bucket, returning it, its chain's first node and key's
// node (nil: absent).
func (m *HashMap[V]) find(tx stm.Tx, key uint64) (slot *stm.TVar[hmNode[V]], head, n *hmNode[V], err error) {
	slot = m.bucket(key)
	if head, err = stm.ReadRefT(tx, slot); err != nil {
		return nil, nil, nil, err
	}
	return slot, head, seek(head, key), nil
}

// Get returns the value under key.
func (m *HashMap[V]) Get(tx stm.Tx, key uint64) (V, bool, error) {
	var zero V
	_, _, n, err := m.find(tx, key)
	if err != nil || n == nil {
		return zero, false, err
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
	slot, head, n, err := m.find(tx, key)
	if err != nil {
		return false, err
	}
	if n != nil {
		return false, stm.WriteT(tx, &n.val, val)
	}
	// A copy, so that val escapes on this path only: the address of the
	// parameter itself would cost the overwrite above an allocation too.
	v := val
	return insert(tx, slot, head, key, &v)
}

// PutRef stores the cell *val under key without spilling a copy, reporting
// whether the key was new. It is Put for callers that already hold the
// value in an immutable heap cell (an interned value, a pooled write-path
// cell): the cell itself becomes the committed value, so the operation
// adds no allocation of its own on the overwrite path. The caller cedes
// ownership — *val must never be mutated after the call.
func (m *HashMap[V]) PutRef(tx stm.Tx, key uint64, val *V) (bool, error) {
	slot, head, n, err := m.find(tx, key)
	if err != nil {
		return false, err
	}
	if n != nil {
		return false, stm.WriteRefT(tx, &n.val, val)
	}
	return insert(tx, slot, head, key, val)
}

// PutIfAbsent stores val under key only if absent, reporting whether it
// stored (genome's segment de-duplication pattern).
func (m *HashMap[V]) PutIfAbsent(tx stm.Tx, key uint64, val V) (bool, error) {
	slot, head, n, err := m.find(tx, key)
	if err != nil || n != nil {
		return false, err
	}
	v := val // as in Put: absent keys alone pay for the cell
	return insert(tx, slot, head, key, &v)
}

// Delete removes key, reporting whether it was present. It re-publishes the
// bucket with a copy of each node ahead of key's, which carries the value
// cell this transaction read from the original's var, in front of the rest
// of the chain: deleting a chain's first node copies nothing. Reading the
// cells is what keeps a concurrent write to one of those keys: a writer that
// commits first fails this delete's validation, and one that commits after
// it finds the bucket it read changed.
func (m *HashMap[V]) Delete(tx stm.Tx, key uint64) (bool, error) {
	slot, head, n, err := m.find(tx, key)
	if err != nil || n == nil {
		return false, err
	}
	var first *hmNode[V]
	link := &first
	for a := head; a != n; a = a.next {
		cell, err := stm.ReadRefT(tx, &a.val)
		if err != nil {
			return false, err
		}
		c := &hmNode[V]{key: a.key}
		c.val.InitRef(cell)
		*link = c
		link = &c.next
	}
	*link = n.next
	if err := stm.WriteRefT(tx, slot, first); err != nil {
		return false, err
	}
	return true, nil
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

// ForEach calls fn for every key/value pair (bucket order, newest key first
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
		n, err := stm.ReadRefT(tx, &m.buckets[i])
		if err != nil {
			return err
		}
		for ; n != nil; n = n.next {
			if n.key < lo || n.key > hi {
				continue
			}
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

// findRO locates key's node (or nil) under the snapshot-read protocol.
func (m *HashMap[V]) findRO(tx *stm.ROTx, key uint64) (*hmNode[V], error) {
	head, err := stm.ReadRefTRO(tx, m.bucket(key))
	return seek(head, key), err
}

// GetRO is Get for read-only snapshot transactions: the bucket read and the
// value read validate inline against the snapshot, with no read-log
// bookkeeping — the tkv serving path's Get runs on this.
func (m *HashMap[V]) GetRO(tx *stm.ROTx, key uint64) (V, bool, error) {
	var zero V
	n, err := m.findRO(tx, key)
	if err != nil || n == nil {
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
	head *hmNode[V] // the node the key's bucket slot pointed at
}

// Probe takes the first hop of key's path: it loads the bucket slot.
func (m *HashMap[V]) Probe(key uint64) Probe[V] {
	return Probe[V]{key: key, head: (*hmNode[V])(m.bucket(key).Word().LoadPtr())}
}

// Cell takes the rest of the path's hops but the last: it walks the bucket's
// chain to key's node and returns the node's value cell without reading it
// (nil: key absent). In a table with about a bucket per key this is usually
// one load.
func (p Probe[V]) Cell() *V {
	n := seek(p.head, p.key)
	if n == nil {
		return nil
	}
	return (*V)(n.val.Word().LoadPtr())
}

// ContainsRO reports whether key is present, under the GetRO protocol.
func (m *HashMap[V]) ContainsRO(tx *stm.ROTx, key uint64) (bool, error) {
	n, err := m.findRO(tx, key)
	return err == nil && n != nil, err
}

// SizeRO counts the entries under a read-only snapshot transaction. Unlike
// Size, the whole-table scan costs no read-log growth: the snapshot itself
// is the consistency proof.
func (m *HashMap[V]) SizeRO(tx *stm.ROTx) (int, error) {
	total := 0
	for i := range m.buckets {
		n, err := stm.ReadRefTRO(tx, &m.buckets[i])
		if err != nil {
			return 0, err
		}
		for ; n != nil; n = n.next {
			total++
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
		n, err := stm.ReadRefTRO(tx, &m.buckets[i])
		if err != nil {
			return err
		}
		for ; n != nil; n = n.next {
			if n.key < lo || n.key > hi {
				continue
			}
			v, err := stm.ReadTRO(tx, &n.val)
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
