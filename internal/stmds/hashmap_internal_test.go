package stmds

import (
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

// mallocs returns the number of heap allocations fn performs.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
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

// TestHashMapAllocs: an operation allocates the node when it links one, the
// value cell when it is handed a value and not a cell, and a delete one copy
// per node ahead of its key, and nothing else — a bucket var holds its first
// node itself. SortedList.Insert is held to the same rule.
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
	// newest first, so that each is its chain's first node. The first round
	// warms the transaction's logs.
	phases := []struct {
		name    string
		n       int
		run     func() error
		wantHit bool
		want    uint64 // allocations per op
		reverse bool
	}{
		{"Put new", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Put(tx, key, key); return }), true, 2, false},
		{"Put existing", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Put(tx, key, key); return }), false, 1, false},
		{"PutRef existing", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutRef(tx, key, cell); return }), false, 0, false},
		{"PutIfAbsent present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutIfAbsent(tx, key, key); return }), false, 0, false},
		{"Get", n, rw(func(tx stm.Tx) (err error) { _, hit, err = m.Get(tx, key); return }), true, 0, false},
		{"GetRO", n, ro(func(tx *stm.ROTx) (err error) { _, hit, err = m.GetRO(tx, key); return }), true, 0, false},
		{"ContainsRO", n, ro(func(tx *stm.ROTx) (err error) { hit, err = m.ContainsRO(tx, key); return }), true, 0, false},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0, true},
		{"Delete absent", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), false, 0, false},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutRef(tx, key, cell); return }), true, 1, false},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0, true},
		{"PutIfAbsent absent", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutIfAbsent(tx, key, key); return }), true, 2, false},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0, true},
		{"Delete behind one node", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.Delete(tx, pairs[key/2][0]); return }), true, 1, false},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.PutRef(tx, pairs[key/2][0], cell); return }), true, 1, false},
		{"Delete behind one node", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.Delete(tx, pairs[key/2][1]); return }), true, 1, false},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = pair.PutRef(tx, pairs[key/2][1], cell); return }), true, 1, false},
		{"SortedList.Insert new", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Insert(tx, int64(key), 0); return }), true, 2, false},
		{"SortedList.Insert existing", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Insert(tx, int64(key), 0); return }), false, 0, false},
		{"SortedList.Delete", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Delete(tx, int64(key)); return }), true, 0, false},
	}
	for round := 0; round < 2; round++ {
		for _, p := range phases {
			got := mallocs(func() {
				for i := 0; i < p.n; i++ {
					j := i
					if p.reverse {
						j = p.n - 1 - i
					}
					key = uint64(j*37%n)*2 + 1
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
			if want := p.want * uint64(p.n); round > 0 && (got < want || got > want+stray) {
				t.Errorf("%s: %d allocations in %d ops, want %d per op", p.name, got, p.n, p.want)
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

// TestNodeSizes holds the two node layouts at what their fields add up to
// over a 16-byte engine word (stm.TestVarSize): key, self and four vars in a
// tree node, link, one var and key in a map node. The tree has no
// bytes-per-node gate; this is it.
func TestNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(rbNode[int64]{}); got != 80 {
		t.Errorf("unsafe.Sizeof(rbNode[int64]{}) = %d, want 80", got)
	}
	if got := unsafe.Offsetof(rbNode[int64]{}.val); got != 48 {
		t.Errorf("rbNode: val at offset %d, want 48 — a lookup's key, self, left and right come first", got)
	}
	if got := unsafe.Sizeof(hmNode[string]{}); got != 32 {
		t.Errorf("unsafe.Sizeof(hmNode[string]{}) = %d, want 32", got)
	}
}

// TestHashMapBytesPerKey bounds what a loaded map holds on the heap, in the
// shape tkv gives it (string values in caller-owned cells): a 32-byte node,
// the 16-byte cell and the value's bytes per key, a 16-byte var per bucket.
func TestHashMapBytesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	const keys, buckets, valLen = 100_000, 1 << 17, 128
	th := swiss.New(swiss.Options{}).Register("t0")
	val := strings.Repeat("v", valLen)
	before := liveHeap()
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
	held := liveHeap() - before
	const want = keys*(32+16+valLen) + buckets*16
	t.Logf("%d keys in %d buckets hold %d bytes: %.1f per key beyond the %d per bucket", keys, buckets, held, (float64(held)-buckets*16)/keys, 16)
	if held > want+want*3/100 {
		t.Errorf("the map holds %d bytes, want at most %d (+3%%): 32+16+%d per key, 16 per bucket", held, want, valLen)
	}
	runtime.KeepAlive(m)
}

// TestHashMapRemovedNodesAreCollected: a removed chain head that something
// still references — a reader standing on it, a slot of a thread's read log
// that later, shorter transactions do not overwrite; here the test itself —
// must keep alive the chain it headed when it was read and nothing removed
// after it. Links never change once published, so a node reaches only nodes
// older than itself, and every delete here copies the nodes ahead of its key.
func TestHashMapRemovedNodesAreCollected(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are its own")
	}
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
}
