package stmds

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

// TestHashMapModelProperty drives a 16-bucket map over 64 keys — chains of
// four, so a node is removed from the front, the middle and the end of its
// chain, behind nodes that are copied ahead of the rest, and a key deleted and
// put back — with seeded streams of Put, PutRef, PutIfAbsent and Delete on
// both engines, and after every operation compares the answer, Size, the key
// sequence (bucket order, newest key first within a bucket), Contains of every
// key and every value against a Go map.
func TestHashMapModelProperty(t *testing.T) {
	for name, tm := range map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("model")
			for seed := int64(1); seed <= 4; seed++ {
				checkHashMapAgainstModel(t, th, rand.New(rand.NewSource(seed)), 1500)
			}
		})
	}
}

func checkHashMapAgainstModel(t *testing.T, th stm.Thread, rng *rand.Rand, ops int) {
	t.Helper()
	const keyRange = 64
	m := NewHashMap[uint64](16)
	model := make(map[uint64]uint64)
	born := make(map[uint64]int) // the op that put each present key in
	for op := 0; op < ops; op++ {
		k, kind, val := uint64(rng.Intn(keyRange)), rng.Intn(6), uint64(op)
		_, existed := model[k]
		err := th.Atomically(func(tx stm.Tx) error {
			var changed bool
			var err error
			switch kind {
			case 0:
				changed, err = m.Put(tx, k, val)
			case 1:
				cell := val // a fresh cell per attempt: PutRef keeps it
				changed, err = m.PutRef(tx, k, &cell)
			case 2:
				changed, err = m.PutIfAbsent(tx, k, val)
			default:
				changed, err = m.Delete(tx, k)
				if err == nil && changed != existed {
					err = fmt.Errorf("delete(%d): deleted=%v, model had it=%v", k, changed, existed)
				}
				return err
			}
			if err == nil && changed == existed {
				err = fmt.Errorf("put kind %d (%d): new=%v, model had it=%v", kind, k, changed, existed)
			}
			return err
		})
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		switch {
		case kind >= 3:
			delete(model, k)
		case kind < 2 || !existed:
			model[k] = val
		}
		if kind < 3 && !existed {
			born[k] = op
		}
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool {
			bi, bj := hashKey(want[i])&m.mask, hashKey(want[j])&m.mask
			return bi < bj || bi == bj && born[want[i]] > born[want[j]]
		})
		err = th.Atomically(func(tx stm.Tx) error {
			keys, err := m.Keys(tx)
			if err != nil {
				return err
			}
			if !slices.Equal(keys, want) {
				return fmt.Errorf("keys %v, want %v", keys, want)
			}
			if size, err := m.Size(tx); err != nil || size != len(want) {
				return fmt.Errorf("size %d (%v), want %d", size, err, len(want))
			}
			for k := uint64(0); k < keyRange; k++ {
				wantV, wantOK := model[k]
				if ok, err := m.Contains(tx, k); err != nil || ok != wantOK {
					return fmt.Errorf("contains(%d) = %v (%v), want %v", k, ok, err, wantOK)
				}
				if v, ok, err := m.Get(tx, k); err != nil || ok != wantOK || v != wantV {
					return fmt.Errorf("get(%d) = %d, %v (%v), want %d, %v", k, v, ok, err, wantV, wantOK)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("after op %d (kind %d, key %d): %v", op, kind, k, err)
		}
		// With no writer running, the untransacted walk is exact.
		for k := uint64(0); k < keyRange; k++ {
			wantV, wantOK := model[k]
			if c := m.Probe(k).Cell(); (c != nil) != wantOK || c != nil && *c != wantV {
				t.Fatalf("after op %d: probe(%d) = %v, want %d, %v", op, k, c, wantV, wantOK)
			}
		}
	}
}

// TestHashMapDeleteCopiesKeepWritesAhead: a delete re-publishes the nodes
// ahead of its key as copies, and a copy must carry what a concurrent writer
// commits to its original, or that write is lost. Every key here is in one
// bucket. Two adders add to keys ahead of a key that a deleter deletes and
// puts back (moving the adders' keys to the front again after, so that they
// stay ahead of it), while a read-only reader looks up the key behind them
// all, present throughout. No acknowledged add may be lost, and the reader
// must never miss its key.
func TestHashMapDeleteCopiesKeepWritesAhead(t *testing.T) {
	for name, tm := range map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			const adders, perAdder, cycles, resident = 2, 2, 1000, 7
			m := NewHashMap[uint64](1)
			var keys []uint64 // the reader's, the deleter's, then the adders'
			for k := uint64(0); len(keys) < 2+adders*perAdder; k++ {
				if hashKey(k)&m.mask == 0 {
					keys = append(keys, k)
				}
			}
			held, victim, ahead := keys[0], keys[1], keys[2:]
			if err := tm.Register("preload").Atomically(func(tx stm.Tx) error {
				for _, k := range keys {
					if _, err := m.Put(tx, k, 0); err != nil {
						return err
					}
				}
				_, err := m.Put(tx, held, resident)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			var done atomic.Bool
			var wg sync.WaitGroup
			acked := make([]uint64, len(ahead))
			for a := 0; a < adders; a++ {
				th := tm.Register(fmt.Sprintf("adder-%d", a))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; !done.Load(); i++ {
						if i%16 == 0 {
							runtime.Gosched() // on one processor, let the deleter in
						}
						j := a*perAdder + i%perAdder
						if err := th.Atomically(func(tx stm.Tx) error {
							v, ok, err := m.Get(tx, ahead[j])
							if err == nil && !ok {
								err = fmt.Errorf("key %d is gone", ahead[j])
							}
							if err == nil {
								_, err = m.Put(tx, ahead[j], v+1)
							}
							return err
						}); err != nil {
							t.Error(err)
							return
						}
						acked[j]++
					}
				}()
			}
			reader := tm.Register("reader")
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					runtime.Gosched()
					if err := reader.AtomicallyRO(func(tx *stm.ROTx) error {
						v, ok, err := m.GetRO(tx, held)
						if err == nil && (!ok || v != resident) {
							err = fmt.Errorf("key %d read as %d, %v", held, v, ok)
						}
						return err
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			deleter := tm.Register("deleter")
			del := func(tx stm.Tx) error {
				_, err := m.Delete(tx, victim)
				return err
			}
			// putBack puts the victim back and moves the adders' keys, with
			// their values, in front of it again.
			putBack := func(tx stm.Tx) error {
				if _, err := m.Put(tx, victim, 0); err != nil {
					return err
				}
				for _, k := range ahead {
					v, _, err := m.Get(tx, k)
					if err == nil {
						_, err = m.Delete(tx, k)
					}
					if err == nil {
						_, err = m.Put(tx, k, v)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
			var err error
			for c := 0; c < cycles && err == nil && !t.Failed(); c++ {
				runtime.Gosched() // and the adders and the reader in
				if err = deleter.Atomically(del); err == nil {
					err = deleter.Atomically(putBack)
				}
			}
			done.Store(true)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d cycles against %v acknowledged adds", cycles, acked)
			if err := deleter.Atomically(func(tx stm.Tx) error {
				for j, k := range ahead {
					if v, _, err := m.Get(tx, k); err != nil {
						return err
					} else if v != acked[j] {
						t.Errorf("key %d holds %d after %d acknowledged adds", k, v, acked[j])
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHashMapConcurrentGrowth: inserters share a fresh map's slab cursor,
// and one of them ends the growth phase halfway by deleting its own keys
// while the others go on inserting. Every slot goes to one insert: every
// key is found afterwards with its value, and none that was deleted.
func TestHashMapConcurrentGrowth(t *testing.T) {
	for name, tm := range map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			const writers, perWriter = 4, 2000
			m := NewHashMap[uint64](writers * perWriter / 4)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				th := tm.Register(fmt.Sprintf("writer-%d", w))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						k := uint64(i*writers + w)
						if err := th.Atomically(func(tx stm.Tx) error {
							_, err := m.Put(tx, k, k)
							return err
						}); err != nil {
							t.Error(err)
							return
						}
						if w == 0 && i >= perWriter/2 && i%2 == 0 {
							if err := th.Atomically(func(tx stm.Tx) error {
								_, err := m.Delete(tx, k)
								return err
							}); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if !m.deleted.Load() {
				t.Fatal("the map still takes slabs after a delete")
			}
			if err := tm.Register("checker").Atomically(func(tx stm.Tx) error {
				size := 0
				for k := uint64(0); k < writers*perWriter; k++ {
					i, w := int(k)/writers, k%writers
					want := !(w == 0 && i >= perWriter/2 && i%2 == 0)
					v, ok, err := m.Get(tx, k)
					if err != nil {
						return err
					}
					if ok != want || ok && v != k {
						return fmt.Errorf("get(%d) = %d, %v, want present=%v", k, v, ok, want)
					}
					if ok {
						size++
					}
				}
				if got, err := m.Size(tx); err != nil || got != size {
					return fmt.Errorf("size %d (%v), want %d", got, err, size)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHashMapDeadNodesHoldNoValue: no node the map has let go of keeps a
// value alive, since a slab keeps every slot of it as long as one of its
// nodes lives. A delete empties the value var of each node it unlinks (the
// removed one and the originals of the copies ahead of it), and an insert
// whose transaction aborts leaves the slab slot it took holding no value.
func TestHashMapDeadNodesHoldNoValue(t *testing.T) {
	for name, tm := range map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			m := NewHashMap[uint64](16)
			var keys []uint64 // four keys of one bucket
			for k := uint64(0); len(keys) < 4; k++ {
				if hashKey(k)&m.mask == 0 {
					keys = append(keys, k)
				}
			}
			put := func(ks ...uint64) error {
				return th.Atomically(func(tx stm.Tx) error {
					for _, k := range ks {
						if _, err := m.Put(tx, k, k); err != nil {
							return err
						}
					}
					return nil
				})
			}
			if err := put(keys[0]); err != nil {
				t.Fatal(err)
			}
			abort := errors.New("abort")
			aborted := &m.slab[0] // the slot the next insert takes
			if err := th.Atomically(func(tx stm.Tx) error {
				if _, err := m.Put(tx, keys[3], keys[3]); err != nil {
					return err
				}
				return abort
			}); !errors.Is(err, abort) {
				t.Fatalf("aborted insert: %v", err)
			}
			if aborted.key != keys[3] || aborted.val.Word().LoadPtr() != nil {
				t.Errorf("the slot of an aborted insert holds key %d and value cell %p, want key %d and none", aborted.key, aborted.val.Word().LoadPtr(), keys[3])
			}
			if err := put(keys[1], keys[2]); err != nil {
				t.Fatal(err)
			}
			var unlinked []*hmNode[uint64] // keys[0]'s node and the two ahead of it
			if err := th.Atomically(func(tx stm.Tx) error {
				_, head, n, err := m.find(tx, keys[0])
				unlinked = []*hmNode[uint64]{n, head, head.next}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := th.Atomically(func(tx stm.Tx) error {
				_, err := m.Delete(tx, keys[0])
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for _, n := range unlinked {
				if c := n.val.Word().LoadPtr(); c != nil {
					t.Errorf("unlinked node of key %d holds value %d", n.key, *(*uint64)(c))
				}
			}
			if err := th.Atomically(func(tx stm.Tx) error {
				for _, k := range keys[1:3] {
					if v, ok, err := m.Get(tx, k); err != nil || !ok || v != k {
						return fmt.Errorf("get(%d) = %d, %v, %v after the delete behind it", k, v, ok, err)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mallocs returns the number of heap allocations fn performs. It collects
// first, so that the process's first collection, whose start allocates the
// runtime's mark workers, does not begin inside fn.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// liveObjects returns the heap objects still reachable after a collection.
func liveObjects() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapObjects
}

// TestHashMapAllocs: an operation allocates the node when it links one, the
// value cell when it is handed a value and not a cell, and a delete one copy
// per node ahead of its key, and nothing else — a bucket var holds its first
// node itself. A map that has never unlinked a node (grow here) takes its
// nodes from slabs, one allocation per slabNodes inserts; one that has (m
// and pair, from the first round's deletes on) allocates each node.
// SortedList.Insert is held to its node: the node holds its first value's
// cell, and a link holds the node it points at.
func TestHashMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	th := swiss.New(swiss.Options{}).Register("t0")
	const n = 1024 // odd keys come and go, even keys share their chains
	m := NewHashMap[uint64](n / 2)
	l := NewSortedList[int64]()
	// pair has a chain of two keys in each bucket, pairs[b][1] ahead.
	pair := NewHashMap[uint64](n)
	grow := NewHashMap[uint64](8 * n)
	fresh := uint64(2 * n) // grow's next key, one no other map holds
	pairs := make([][2]uint64, n)
	fill := make([]int, n)
	for k, left := uint64(0), 2*n; left > 0; k++ {
		if b := hashKey(k) & pair.mask; fill[b] < 2 {
			pairs[b][fill[b]] = k
			fill[b]++
			left--
		}
	}
	if err := th.Atomically(func(tx stm.Tx) error {
		for k := uint64(0); k < 2*n; k += 2 {
			if _, err := m.Put(tx, k, k); err != nil {
				return err
			}
		}
		for _, p := range pairs {
			for _, k := range p {
				if _, err := pair.Put(tx, k, k); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var key uint64
	var hit bool
	cell := new(uint64)
	ro := func(body func(tx *stm.ROTx) error) func() error {
		return func() error { return th.AtomicallyRO(body) }
	}
	rw := func(body func(tx stm.Tx) error) func() error {
		return func() error { return th.Atomically(body) }
	}
	// The phases run in this order on the odd keys (for the list, the
	// first 64 of them: its search is linear; for pair, the pair in bucket
	// key/2, whose key behind the other is deleted and put back in front);
	// each leaves them as the next expects. A delete of a present key takes them
	// newest first, so that each is its chain's first node. The phases on
	// grow take a fresh key each. The first round warms the transaction's
	// logs.
	phases := []struct {
		name    string
		n       int
		run     func() error
		wantHit bool
		want    uint64 // allocations per op, besides grow's slabs
		reverse bool
		grows   bool // on grow: fresh keys, and a slab per slabNodes inserts
	}{
		{"Put new", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Put(tx, key, key); return }), true, 2, false, false},
		{"Put existing", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Put(tx, key, key); return }), false, 1, false, false},
		{"PutRef existing", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutRef(tx, key, cell); return }), false, 0, false, false},
		{"PutIfAbsent present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutIfAbsent(tx, key, key); return }), false, 0, false, false},
		{"Get", n, rw(func(tx stm.Tx) (err error) { _, hit, err = m.Get(tx, key); return }), true, 0, false, false},
		{"GetRO", n, ro(func(tx *stm.ROTx) (err error) { _, hit, err = m.GetRO(tx, key); return }), true, 0, false, false},
		{"ContainsRO", n, ro(func(tx *stm.ROTx) (err error) { hit, err = m.ContainsRO(tx, key); return }), true, 0, false, false},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0, true, false},
		{"Delete absent", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), false, 0, false, false},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutRef(tx, key, cell); return }), true, 1, false, false},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0, true, false},
		{"PutIfAbsent absent", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutIfAbsent(tx, key, key); return }), true, 2, false, false},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0, true, false},
		{"Delete behind one node", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.Delete(tx, pairs[key/2][0]); return }), true, 1, false, false},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.PutRef(tx, pairs[key/2][0], cell); return }), true, 1, false, false},
		{"Delete behind one node", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.Delete(tx, pairs[key/2][1]); return }), true, 1, false, false},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.PutRef(tx, pairs[key/2][1], cell); return }), true, 1, false, false},
		{"Put new, growing", n, rw(func(tx stm.Tx) (err error) { hit, err = grow.Put(tx, key, key); return }), true, 1, false, true},
		{"PutRef new, growing", n, rw(func(tx stm.Tx) (err error) { hit, err = grow.PutRef(tx, key, cell); return }), true, 0, false, true},
		{"PutIfAbsent absent, growing", n, rw(func(tx stm.Tx) (err error) { hit, err = grow.PutIfAbsent(tx, key, key); return }), true, 1, false, true},
		{"SortedList.Insert new", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Insert(tx, int64(key), 0); return }), true, 1, false, false},
		{"SortedList.Insert existing", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Insert(tx, int64(key), 0); return }), false, 0, false, false},
		{"SortedList.Delete", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Delete(tx, int64(key)); return }), true, 0, false, false},
	}
	for round := 0; round < 2; round++ {
		for _, p := range phases {
			want := p.want * uint64(p.n)
			if free := len(grow.slab); p.grows && p.n > free {
				want += uint64((p.n - free + slabNodes - 1) / slabNodes)
			}
			got := mallocs(func() {
				for i := 0; i < p.n; i++ {
					j := i
					if p.reverse {
						j = p.n - 1 - i
					}
					key = uint64(j*37%n)*2 + 1
					if p.grows {
						key, fresh = fresh, fresh+1
					}
					if err := p.run(); err != nil {
						t.Fatal(err)
					}
					if hit != p.wantHit {
						t.Fatalf("%s: key %d: hit=%v", p.name, key, hit)
					}
				}
			})
			// A few stray allocations by the runtime over a phase are
			// not the map's.
			const stray = 10
			if round > 0 && (got < want || got > want+stray) {
				t.Errorf("%s: %d allocations in %d ops, want %d", p.name, got, p.n, want)
			}
		}
	}
}

// TestConstructorAllocs: a table's vars sit in its one slice by value and
// start out empty (a map's buckets) or on one shared cell (an array's), so
// building it costs the same few allocations whatever its size.
func TestConstructorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var keep [2]any
	for _, c := range []struct {
		name string
		make func(n int) any
		want uint64
	}{
		{"NewHashMap", func(n int) any { return NewHashMap[string](n) }, 2}, // map, buckets
		{"NewArray", func(n int) any { return NewArray(n, 7) }, 3},          // array, cells, initial value
	} {
		for i, n := range []int{16, 1 << 16} {
			// Allowing the runtime a stray one; it was 2n + 2.
			if got := mallocs(func() { keep[i] = c.make(n) }); got < c.want || got > c.want+1 {
				t.Errorf("%s(%d): %d allocations, want %d", c.name, n, got, c.want)
			}
		}
	}
	runtime.KeepAlive(keep)
}

// TestNodeSizes holds the node layouts at what their fields add up to
// over a 16-byte engine word (stm.TestVarSize): key, two links, two vars and
// the first value's cell in a tree node, key, link, one var and the first
// value's cell in a list node, link, one var and key in a map node. The tree
// has no bytes-per-node gate; this is it. A lookup's hops read a tree
// node's key and links, which come first. A map's slab fills its size
// class, and its nodes sit on 32-byte boundaries.
func TestNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(rbNode[int64]{}); got != 80 {
		t.Errorf("unsafe.Sizeof(rbNode[int64]{}) = %d, want 80", got)
	}
	if kids, val := unsafe.Offsetof(rbNode[int64]{}.kids), unsafe.Offsetof(rbNode[int64]{}.val); kids != 8 || val != 40 {
		t.Errorf("rbNode: kids at offset %d, val at %d, want 8 and 40 — a lookup's key and links come first", kids, val)
	}
	if got := unsafe.Sizeof(listNode[int64]{}); got != 48 {
		t.Errorf("unsafe.Sizeof(listNode[int64]{}) = %d, want 48", got)
	}
	if got := unsafe.Sizeof(hmNode[string]{}); got != 32 {
		t.Errorf("unsafe.Sizeof(hmNode[string]{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(slab[string]{}); got != 2048-8 {
		t.Errorf("unsafe.Sizeof(slab[string]{}) = %d, want 2040: the 2,048-byte size class less its 8-byte header", got)
	}
	if n := NewHashMap[string](16).newNode(nil, 0); uintptr(unsafe.Pointer(n))%32 != 0 {
		t.Errorf("a slab's first node is at %p, want a 32-byte boundary", n)
	}
}

// TestHashMapBytesPerKey bounds what a loaded map holds on the heap, in the
// shape tkv gives it (string values in caller-owned cells, and no delete, so
// the nodes sit in slabs of slabNodes): 2 + 1/slabNodes objects per key (the
// value's cell and bytes, and its share of a slab), 32 bytes of node, the
// 16-byte cell and the value's bytes per key, a 16-byte var per bucket.
func TestHashMapBytesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	const keys, buckets, valLen = 100_000, 1 << 17, 128
	th := swiss.New(swiss.Options{}).Register("t0")
	val := strings.Repeat("v", valLen)
	before, objectsBefore := liveHeap(), liveObjects()
	m := NewHashMap[string](buckets)
	for k := uint64(0); k < keys; k++ {
		cell := new(string)
		*cell = strings.Clone(val)
		if err := th.Atomically(func(tx stm.Tx) error {
			_, err := m.PutRef(tx, k, cell)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	held, objects := liveHeap()-before, liveObjects()-objectsBefore
	const want = keys*(32+16+valLen) + buckets*16
	const wantObjects = 2*keys + (keys+slabNodes-1)/slabNodes + 2 // and the map, its buckets
	t.Logf("%d keys in %d buckets hold %d bytes: %.1f per key beyond the %d per bucket; %d objects, %.4f per key", keys, buckets, held, (float64(held)-buckets*16)/keys, 16, objects, float64(objects)/keys)
	if held > want+want*3/100 {
		t.Errorf("the map holds %d bytes, want at most %d (+3%%): 32+16+%d per key, 16 per bucket", held, want, valLen)
	}
	// A few objects of the runtime's come or go over the load.
	if objects+16 < wantObjects || objects > wantObjects+16 {
		t.Errorf("the map holds %d objects, want %d (±16): 2 per key, a slab per %d keys, the map and its buckets", objects, wantObjects, slabNodes)
	}
	runtime.KeepAlive(m)
}

// TestHashMapRemovedNodesAreCollected: a removed chain head that something
// still references — a reader standing on it, a slot of a thread's read log
// that later, shorter transactions do not overwrite; here the test itself —
// must keep alive the chain it headed when it was read and nothing removed
// after it. Links never change once published, so a node reaches only nodes
// older than itself, and every delete in the window case copies the nodes
// ahead of its key. The churn case holds what slabs may keep: a slab lives
// while any of its nodes does, and its dead nodes' links reach older slabs,
// so a map that kept taking nodes from slabs under deletes and inserts would
// grow without end; one that stops at its first delete stays flat.
func TestHashMapRemovedNodesAreCollected(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	t.Run("window", func(t *testing.T) {
		th := swiss.New(swiss.Options{}).Register("t0")
		m := NewHashMap[uint64](16)
		update := func(key uint64, insert bool) {
			if err := th.Atomically(func(tx stm.Tx) (err error) {
				if insert {
					_, err = m.Put(tx, key, key)
				} else {
					_, err = m.Delete(tx, key)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		// A window of 256 keys slides upwards: every bucket's chain gains a
		// first node and loses its last, some sixteen nodes long throughout.
		const window, rounds = 256, 200_000
		for k := uint64(0); k < window; k++ {
			update(k, true)
		}
		var stale *hmNode[uint64] // the first node of key 0's chain
		if err := th.Atomically(func(tx stm.Tx) (err error) {
			_, stale, _, err = m.find(tx, 0)
			return err
		}); err != nil || stale == nil || stale.key == 0 {
			t.Fatalf("key 0 is not behind the first node of its chain: %v, %v", stale, err)
		}
		update(0, false) // which copies stale, and stale leaves the map
		before := liveHeap()
		for k := uint64(1); k <= rounds; k++ {
			update(k+window-1, true)
			update(k, false)
		}
		after := liveHeap()
		t.Logf("live heap %d KiB, %d KiB after %d rounds", before>>10, after>>10, rounds)
		if after > before+64<<10 {
			t.Errorf("the live heap grew from %d to %d KiB under updates that kept the map the same size: removed nodes are being kept", before>>10, after>>10)
		}
		runtime.KeepAlive(stale)
	})
	// churn loads 10k live keys, about one a bucket, into slabs — a key a
	// transaction (as tkv loads them) or, bulk, all in one on a loader
	// thread that then stays idle — and calls loaded, then each round on
	// another thread deletes a random present key and inserts a fresh one.
	// It returns the live heap after early and after all rounds, and the
	// loader, whose logs the caller keeps alive.
	churn := func(t *testing.T, bulk bool, early, rounds int, loaded func(stm.Thread, *HashMap[uint64])) (mid, after uint64, loader stm.Thread) {
		const live = 10_000
		tm := swiss.New(swiss.Options{})
		th := tm.Register("t0")
		loader = th
		if bulk {
			loader = tm.Register("loader")
		}
		m := NewHashMap[uint64](live)
		keys := make([]uint64, live)
		for i := range keys {
			keys[i] = uint64(i)
		}
		load := func(keys []uint64) {
			if err := loader.Atomically(func(tx stm.Tx) error {
				for _, k := range keys {
					if _, err := m.Put(tx, k, k); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if bulk {
			load(keys)
		} else {
			for i := range keys {
				load(keys[i : i+1])
			}
		}
		if loaded != nil {
			loaded(th, m)
		}
		rng := rand.New(rand.NewSource(1))
		fresh := uint64(live)
		for r := 1; r <= rounds; r++ {
			i := rng.Intn(live)
			if err := th.Atomically(func(tx stm.Tx) error {
				if ok, err := m.Delete(tx, keys[i]); err != nil || !ok {
					return fmt.Errorf("delete(%d) = %v, %v", keys[i], ok, err)
				}
				_, err := m.Put(tx, fresh, fresh)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			keys[i], fresh = fresh, fresh+1
			if r == early {
				mid = liveHeap()
			}
		}
		after = liveHeap()
		runtime.KeepAlive(m)
		return mid, after, loader
	}
	const early, rounds = 400_000, 2_000_000
	t.Run("churn", func(t *testing.T) {
		mid, after, th := churn(t, false, early, rounds, nil)
		t.Logf("live heap %d KiB after %d rounds, %d KiB after %d", mid>>10, early, after>>10, rounds)
		if after > mid+64<<10 {
			t.Errorf("the live heap grew from %d to %d KiB under churn that kept the map the same size: removed nodes are being kept", mid>>10, after>>10)
		}
		runtime.KeepAlive(th)
	})
	// A preload in one transaction keeps none of its slabs once churn has
	// replaced every key it loaded, though its thread runs nothing after
	// it: a thread's read log and write index keep only their first logKeep
	// entries uncleared once a transaction is over, which name the first
	// preloaded keys' value vars (and bucket vars), all in the first slab.
	// Without the clearing the write index names a node of every slab, and
	// all of them stay. The heap cannot tell this apart from a preload a
	// key a transaction: the logs keep their capacity, some 0.8 MiB here,
	// so that a warmed thread runs allocation-free.
	t.Run("bulk", func(t *testing.T) {
		var slabs []weak.Pointer[hmNode[uint64]]
		_, after, th := churn(t, true, early, early, func(th stm.Thread, m *HashMap[uint64]) {
			// Key i sits in slot i%slabNodes of slab i/slabNodes.
			for k := uint64(0); k < 10_000; k += slabNodes {
				var n *hmNode[uint64]
				if err := th.Atomically(func(tx stm.Tx) (err error) {
					_, _, n, err = m.find(tx, k)
					return err
				}); err != nil || n == nil {
					t.Fatalf("find(%d) = %v, %v", k, n, err)
				}
				slabs = append(slabs, weak.Make(n))
			}
		})
		kept := 0
		for _, w := range slabs {
			if w.Value() != nil {
				kept++
			}
		}
		t.Logf("%d of the preload's %d slabs kept; live heap %d KiB after %d rounds", kept, len(slabs), after>>10, early)
		if kept > 1 {
			t.Errorf("%d of the %d slabs a one-transaction preload filled outlive every key it loaded: the thread's logs are pinning what the preload touched", kept, len(slabs))
		}
		runtime.KeepAlive(th)
	})
}
