package stmds

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

// TestHashMapModelProperty drives a 16-bucket map over 64 keys — chains of
// four, so a node is linked before the head, between two nodes and after the
// tail, unlinked from each of those places, and a key deleted and put back —
// with seeded streams of Put, PutRef, PutIfAbsent and Delete on both engines,
// and after every operation compares the answer, Size, the key sequence
// (bucket order, ascending within a bucket), Contains of every key and every
// value against a Go map.
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
		want := make([]uint64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool {
			bi, bj := hashKey(want[i])&m.mask, hashKey(want[j])&m.mask
			return bi < bj || bi == bj && want[i] < want[j]
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

// TestHashMapAllocs: an operation allocates the node when it links one and
// the value cell when it is handed a value and not a cell, and nothing else
// — links publish the cell inside the node they point at, empty links the
// map's one nil cell. SortedList.Insert is held to the same rule.
func TestHashMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	th := swiss.New(swiss.Options{}).Register("t0")
	const n = 1024 // odd keys come and go, even keys share their chains
	m := NewHashMap[uint64](n / 2)
	l := NewSortedList[int64]()
	if err := th.Atomically(func(tx stm.Tx) error {
		for k := uint64(0); k < 2*n; k += 2 {
			if _, err := m.Put(tx, k, k); err != nil {
				return err
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
	// first 64 of them: its search is linear); each leaves them as the
	// next expects. The first round warms the transaction's logs.
	phases := []struct {
		name    string
		n       int
		run     func() error
		wantHit bool
		want    uint64 // allocations per op
	}{
		{"Put new", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Put(tx, key, key); return }), true, 2},
		{"Put existing", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Put(tx, key, key); return }), false, 1},
		{"PutRef existing", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutRef(tx, key, cell); return }), false, 0},
		{"PutIfAbsent present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutIfAbsent(tx, key, key); return }), false, 0},
		{"Get", n, rw(func(tx stm.Tx) (err error) { _, hit, err = m.Get(tx, key); return }), true, 0},
		{"GetRO", n, ro(func(tx *stm.ROTx) (err error) { _, hit, err = m.GetRO(tx, key); return }), true, 0},
		{"ContainsRO", n, ro(func(tx *stm.ROTx) (err error) { hit, err = m.ContainsRO(tx, key); return }), true, 0},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0},
		{"Delete absent", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), false, 0},
		{"PutRef new", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutRef(tx, key, cell); return }), true, 1},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0},
		{"PutIfAbsent absent", n, rw(func(tx stm.Tx) (err error) { hit, err = m.PutIfAbsent(tx, key, key); return }), true, 2},
		{"Delete present", n, rw(func(tx stm.Tx) (err error) { hit, err = m.Delete(tx, key); return }), true, 0},
		{"SortedList.Insert new", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Insert(tx, int64(key), 0); return }), true, 2},
		{"SortedList.Insert existing", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Insert(tx, int64(key), 0); return }), false, 0},
		{"SortedList.Delete", 64, rw(func(tx stm.Tx) (err error) { hit, err = l.Delete(tx, int64(key)); return }), true, 0},
	}
	for round := 0; round < 2; round++ {
		for _, p := range phases {
			got := mallocs(func() {
				for i := 0; i < p.n; i++ {
					key = uint64(i*37%n)*2 + 1
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
// start out on one shared cell, so building it costs the same few
// allocations whatever its size.
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
// tree node, key, self and two vars in a map node. The tree has no
// bytes-per-node gate; this is it.
func TestNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(rbNode[int64]{}); got != 80 {
		t.Errorf("unsafe.Sizeof(rbNode[int64]{}) = %d, want 80", got)
	}
	if got := unsafe.Offsetof(rbNode[int64]{}.val); got != 48 {
		t.Errorf("rbNode: val at offset %d, want 48 — a lookup's key, self, left and right come first", got)
	}
	if got := unsafe.Sizeof(hmNode[string]{}); got != 48 {
		t.Errorf("unsafe.Sizeof(hmNode[string]{}) = %d, want 48", got)
	}
}

// TestHashMapBytesPerKey bounds what a loaded map holds on the heap, in the
// shape tkv gives it (string values in caller-owned cells): a 48-byte node,
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
	const want = keys*(48+16+valLen) + buckets*16
	t.Logf("%d keys in %d buckets hold %d bytes: %.1f per key beyond the %d per bucket", keys, buckets, held, (float64(held)-buckets*16)/keys, 16)
	if held > want+want*3/100 {
		t.Errorf("the map holds %d bytes, want at most %d (+3%%): 48+16+%d per key, 16 per bucket", held, want, valLen)
	}
	runtime.KeepAlive(m)
}

// TestHashMapRemovedNodesAreCollected: a removed node that something still
// references — a reader standing on it, a slot of a thread's read log that
// later, shorter transactions do not overwrite; here the test itself — must
// not keep alive the nodes removed after it. With its link left intact it
// does: the link leads to the node that followed it then, which when its
// turn comes is removed with a link to its own successor, and so on for as
// long as new keys keep arriving behind the old.
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
	// A window of 256 keys slides upwards: every bucket's chain loses its
	// head and gains a tail, some sixteen nodes long throughout.
	const window, rounds = 256, 200_000
	for k := uint64(0); k < window; k++ {
		update(k, true)
	}
	var stale, behind *hmNode[uint64] // the head of key 0's chain and the node after it
	if err := th.Atomically(func(tx stm.Tx) (err error) {
		if _, stale, err = m.find(tx, 0); err == nil {
			behind, err = stm.ReadT(tx, &stale.next)
		}
		return err
	}); err != nil || behind == nil {
		t.Fatalf("key 0 heads no chain: %v, %v", behind, err)
	}
	update(0, false)
	before := liveHeap()
	for k := uint64(1); k <= rounds; k++ {
		update(k+window-1, true)
		update(k, false)
	}
	behind = nil
	after := liveHeap()
	t.Logf("live heap %d KiB, %d KiB after %d rounds", before>>10, after>>10, rounds)
	if after > before+64<<10 {
		t.Errorf("the live heap grew from %d to %d KiB under updates that kept the map the same size: removed nodes are being kept", before>>10, after>>10)
	}
	runtime.KeepAlive(stale)
}
