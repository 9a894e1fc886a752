package stmds

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

// The gates below run on the tree of the repository benchmark's stm_tree
// workload: 2,048 of 4,096 keys present, random inserts and deletes.
const (
	fpRange = 4096
	fpOps   = 100_000
)

// countingTx counts the transactional reads and writes an operation issues
// and remembers which vars it read and wrote.
type countingTx struct {
	stm.Tx
	reads, writes int
	read, wrote   []*stm.Var
}

func (c *countingTx) ReadPtr(v *stm.Var) (unsafe.Pointer, error) {
	c.reads++
	c.read = append(c.read, v)
	return c.Tx.ReadPtr(v)
}

func (c *countingTx) WritePtr(v *stm.Var, p unsafe.Pointer) error {
	c.writes++
	c.wrote = append(c.wrote, v)
	return c.Tx.WritePtr(v, p)
}

func fpTree(t *testing.T, th stm.Thread) *RBTree[int64] {
	t.Helper()
	tree := NewRBTree[int64]()
	for k := int64(0); k < fpRange; k += 2 {
		if err := th.Atomically(func(tx stm.Tx) error {
			_, err := tree.Insert(tx, k, k)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// TestRBTreeFootprint holds an update to its search path: what it reads
// beyond the path is a constant number of neighbours, what it writes is what
// changes, and a change at the bottom of the tree all but never reaches the
// root.
func TestRBTreeFootprint(t *testing.T) {
	th := swiss.New(swiss.Options{}).Register("t0")
	tree := fpTree(t, th)

	type class struct{ n, reads, writes int }
	var insNew, insOld, delHit, delMiss, miss class
	var deep, deepAtRoot int
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < fpOps; op++ {
		key, insert := int64(rng.Intn(fpRange)), rng.Intn(2) == 0
		var c countingTx
		var cl *class
		if err := th.Atomically(func(tx stm.Tx) error {
			c = countingTx{Tx: tx}
			root, err := stm.ReadRefT(tx, &tree.root)
			if err != nil {
				return err
			}
			// The length of a search that ends at an empty link: the
			// "path" the bounds below are relative to.
			if ok, err := tree.Contains(&c, key); err != nil {
				return err
			} else if !ok {
				miss.n, miss.reads = miss.n+1, miss.reads+c.reads
			}
			depth := c.reads
			c.reads = 0
			var hit bool
			if insert {
				hit, err = tree.Insert(&c, key, key)
				cl = &insOld
				if hit {
					cl = &insNew
				}
			} else {
				hit, err = tree.Delete(&c, key)
				cl = &delMiss
				if hit {
					cl = &delHit
				}
			}
			if err != nil {
				return err
			}
			if cl == &insOld && c.writes != 1 || cl == &delMiss && c.writes != 0 {
				t.Errorf("op %d key %d: %d writes by an update that changes no structure", op, key, c.writes)
			}
			// A key found (or missed) ten links down is at the bottom
			// of a 2,048-node tree.
			if depth >= 10 && (cl == &insNew || cl == &delHit) {
				deep++
				for _, v := range c.wrote {
					if v == root.red.Word() || v == root.kids[0].Word() || v == root.kids[1].Word() {
						deepAtRoot++
						break
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		cl.n, cl.reads, cl.writes = cl.n+1, cl.reads+c.reads, cl.writes+c.writes
	}

	mean := func(sum, n int) float64 { return float64(sum) / float64(max(n, 1)) }
	path := mean(miss.reads, miss.n)
	t.Logf("path %.1f reads; insert-new %.1f reads %.2f writes (n=%d); insert-existing %.1f reads; delete-present %.1f reads %.2f writes (n=%d); delete-absent %.1f reads; %d of %d bottom-level updates wrote at the root",
		path, mean(insNew.reads, insNew.n), mean(insNew.writes, insNew.n), insNew.n, mean(insOld.reads, insOld.n),
		mean(delHit.reads, delHit.n), mean(delHit.writes, delHit.n), delHit.n, mean(delMiss.reads, delMiss.n), deepAtRoot, deep)
	for _, b := range []struct {
		name                 string
		c                    class
		overPath, meanWrites float64
	}{
		{"insert-new", insNew, 8, 6},
		{"delete-present", delHit, 16, 10},
	} {
		if b.c.n < fpOps/8 {
			t.Fatalf("%s: only %d of %d ops", b.name, b.c.n, fpOps)
		}
		if r := mean(b.c.reads, b.c.n); r > path+b.overPath {
			t.Errorf("%s: %.1f reads per op, want at most path (%.1f) + %.0f", b.name, r, path, b.overPath)
		}
		if w := mean(b.c.writes, b.c.n); w > b.meanWrites {
			t.Errorf("%s: %.2f writes per op, want at most %.0f", b.name, w, b.meanWrites)
		}
	}
	// A recolouring that climbs ten levels does reach the root, about
	// once in twenty thousand updates; a tree that repairs from the root
	// down writes there every time.
	if deepAtRoot*1000 > deep {
		t.Errorf("%d of %d updates at the bottom of the tree wrote the root's colour or child links, want at most 1 in 1000", deepAtRoot, deep)
	}
}

// TestRBTreeUpdateAllocs: an update allocates the node, which holds its
// first value's cell, when it inserts a new key, the value cell when it
// overwrites one, and nothing else — a link holds the node it points at and
// a colour one of two shared cells.
func TestRBTreeUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	th := swiss.New(swiss.Options{}).Register("t0")
	tree := fpTree(t, th)

	var key int64
	var hit bool
	insert := func(tx stm.Tx) (err error) {
		hit, err = tree.Insert(tx, key, key)
		return err
	}
	remove := func(tx stm.Tx) (err error) {
		hit, err = tree.Delete(tx, key)
		return err
	}
	// run applies body to n keys drawn by next and returns the mean
	// number of allocations per call.
	run := func(name string, n int, body func(stm.Tx) error, wantHit bool, next func(i int) int64) float64 {
		t.Helper()
		return float64(mallocs(func() {
			for i := 0; i < n; i++ {
				key = next(i)
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
				if hit != wantHit {
					t.Fatalf("%s: key %d: hit=%v", name, key, hit)
				}
			}
		})) / float64(n)
	}
	// Odd keys are absent, even keys present; each phase puts back what
	// it took, in an order that spreads over the tree. The first round
	// warms the transaction's logs.
	const n = 1024
	odd := func(i int) int64 { return int64(i*37%(fpRange/2))*2 + 1 }
	even := func(i int) int64 { return int64(i*37%(fpRange/2)) * 2 }
	for round := 0; round < 2; round++ {
		insNew := run("insert-new", n, insert, true, odd)
		insOld := run("insert-existing", n, insert, false, even)
		delHit := run("delete-present", n, remove, true, odd)
		delMiss := run("delete-absent", n, remove, false, odd)
		if round == 0 {
			continue
		}
		t.Logf("allocs per op: insert-new %.3f, insert-existing %.3f, delete-present %.3f, delete-absent %.3f", insNew, insOld, delHit, delMiss)
		// A few stray allocations by the runtime in a thousand ops are
		// not the tree's.
		const slack = 0.01
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"insert-new", insNew, 1},
			{"insert-existing", insOld, 1},
			{"delete-present", delHit, 0},
			{"delete-absent", delMiss, 0},
		} {
			if c.got < c.want || c.got > c.want+slack {
				t.Errorf("%s: %.3f allocs per op, want %.0f", c.name, c.got, c.want)
			}
		}
	}
}

// TestRBTreeCheckInvariantsNamesTheRule breaks each rule by hand, in a
// transaction that then aborts, and expects the rule and the key back.
func TestRBTreeCheckInvariantsNamesTheRule(t *testing.T) {
	th := swiss.New(swiss.Options{}).Register("t0")
	tree := NewRBTree[int64]()
	if err := th.Atomically(func(tx stm.Tx) error {
		// 2 is the black root over black 1 and black 3; 4 is 3's red child.
		for k := int64(1); k <= 4; k++ {
			if _, err := tree.Insert(tx, k, k); err != nil {
				return err
			}
		}
		_, err := tree.CheckInvariants(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	node := func(tx stm.Tx, key int64) *rbNode[int64] {
		var p rbPath[int64]
		n, err := tree.descend(tx, &p, key)
		if err != nil || n == nil {
			t.Fatalf("key %d: %v, %v", key, n, err)
		}
		return n
	}
	for _, c := range []struct {
		want   string
		damage func(tx stm.Tx) error
	}{
		{"red root: key 2", func(tx stm.Tx) error { return setColor(tx, node(tx, 2), true) }},
		{"red-red: red key 3 has the red child 4", func(tx stm.Tx) error { return setColor(tx, node(tx, 3), true) }},
		{"black height: 1 to the left of key 3, 2 to its right", func(tx stm.Tx) error { return setColor(tx, node(tx, 4), false) }},
		{"order: key 3 is in the left subtree of key 2", func(tx stm.Tx) error {
			return stm.WriteRefT(tx, &node(tx, 2).kids[0], node(tx, 3))
		}},
		{"order: key 1 is in the right subtree of key 2", func(tx stm.Tx) error {
			return stm.WriteRefT(tx, &node(tx, 2).kids[1], node(tx, 1))
		}},
	} {
		err := th.Atomically(func(tx stm.Tx) error {
			if err := c.damage(tx); err != nil {
				return err
			}
			_, err := tree.CheckInvariants(tx)
			if err == nil {
				err = errors.New("no violation reported")
			}
			return err
		})
		if err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("got %v, want a violation ending in %q", err, c.want)
		}
	}
	if err := th.Atomically(func(tx stm.Tx) error {
		_, err := tree.CheckInvariants(tx)
		return err
	}); err != nil {
		t.Fatalf("the aborted transactions left their damage: %v", err)
	}
}

// TestRBTreeRemovedNodesAreCollected: a removed node that something still
// references — a reader standing on it, a slot of a thread's read log that
// later, shorter transactions do not overwrite; here the test itself — must
// not keep alive the nodes removed after it. With its links left intact it
// does: they lead to nodes that were in the tree then, which when their turn
// comes are removed with links to their successors, and so on.
func TestRBTreeRemovedNodesAreCollected(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	th := swiss.New(swiss.Options{}).Register("t0")
	tree := fpTree(t, th)
	update := func(key int64, insert bool) {
		if err := th.Atomically(func(tx stm.Tx) (err error) {
			if insert {
				_, err = tree.Insert(tx, key, key)
			} else {
				_, err = tree.Delete(tx, key)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	var stale *rbNode[int64] // the root: two children, and the whole tree below them
	if err := th.Atomically(func(tx stm.Tx) (err error) {
		stale, err = stm.ReadRefT(tx, &tree.root)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	update(stale.key, false)
	before := liveHeap()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2*fpOps; i++ {
		update(int64(rng.Intn(fpRange)), rng.Intn(2) == 0)
	}
	after := liveHeap()
	t.Logf("live heap %d KiB, %d KiB after %d updates", before>>10, after>>10, 2*fpOps)
	if after > before+64<<10 {
		t.Errorf("the live heap grew from %d to %d KiB under updates that kept the tree the same size: removed nodes are being kept", before>>10, after>>10)
	}
	runtime.KeepAlive(stale)
}
