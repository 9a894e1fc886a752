// Package stmds provides transactional data structures built on the
// engine-agnostic stm.Tx interface: a red-black tree (the paper's
// microbenchmark and the tables of the vacation kernel), a hash map, a
// sorted linked list, a FIFO queue and a fixed array. All operations take a
// transaction and propagate stm.ErrConflict unchanged, so they compose into
// larger transactions.
//
// Every structure is generic over its element type and stores values and
// structural links in typed TVars, so the STM hot path (node hops during
// searches, value reads) runs unboxed: no interface allocation, no type
// assertion per transactional operation. Every structure links the same
// way: a link var's cell is the node it points at, and nil is an empty
// link, so a hop is one load and linking allocates nothing. The tree, the
// hash map, the sorted list, the queue and the array hold their TVars by
// value — in the node, in the structure, in the table's slice — and a tree
// or list node holds its first value's cell as well, so an insert there
// allocates one object. The tree's and the list's links are vars, written
// in place; the hash map's chains are immutable, a bucket var holding its
// first node, so a delete allocates a copy of each node ahead of its key.
// Until its first delete, the hash map takes its nodes from slabs of 63, a
// 2,048-byte object the collector marks at once; from that delete on, a node
// is an object of its own, so slabs keep at most the 32 bytes of each node
// inserted before it.
package stmds

import (
	"fmt"

	"github.com/shrink-tm/shrink/internal/stm"
)

// RBTree is a transactional red-black tree from int64 keys to V: the
// classic bottom-up tree (black root, no red node with a red child, equal
// black height on every path). The paper's red-black tree microbenchmark
// (integer set, range 16384, 20%/70% update mixes) runs on this structure.
//
// An update is one iterative descent that records its search path on the
// stack, followed by the textbook repair loop, which climbs that path only
// while a red-red or double-black violation persists. It therefore reads its
// search path plus a constant number of neighbours, and writes only the vars
// whose value changes — amortised O(1) of them, near the leaf it touched —
// so two updates conflict when they meet in the tree, not because both
// passed through the root.
type RBTree[V any] struct {
	root stm.TVar[rbNode[V]] // read and written by reference only; nil when empty
}

// rbNode lays a node's transactional variables out by value, with its first
// value's cell, so an insert allocates one object: 80 bytes when V is a
// word (int, int64), more for a larger V. A link var holds the child node
// itself (nil: empty), so a hop is one load, to the child's key; what a
// lookup reads on its way down, key and kids, is the node's first 40 bytes.
// Keys are immutable per node.
type rbNode[V any] struct {
	key  int64
	kids [2]stm.TVar[rbNode[V]] // left, right; read and written by reference only
	val  stm.TVar[V]
	red  stm.TVar[bool]
	v0   V // the first value's cell, immutable like every value cell
}

// The two colours, as the immutable cells every colour var points at.
var rbBlack, rbRed = false, true

// NewRBTree returns an empty tree.
func NewRBTree[V any]() *RBTree[V] { return &RBTree[V]{} }

func newRBNode[V any](key int64, val V, red bool) *rbNode[V] {
	n := &rbNode[V]{key: key, v0: val}
	n.val.InitRef(&n.v0)
	n.red.InitRef(colorCell(red))
	return n
}

func colorCell(red bool) *bool {
	if red {
		return &rbRed
	}
	return &rbBlack
}

// dir is the index of the right (true) or left child link in kids.
func dir(right bool) int {
	i := 0
	if right {
		i = 1
	}
	return i
}

// child returns n's right or left link.
func (n *rbNode[V]) child(right bool) *stm.TVar[rbNode[V]] { return &n.kids[dir(right)] }

// setColor writes n's colour. Callers skip the call when they know the
// colour already matches, so a repair locks only what it changes.
func setColor[V any](tx stm.Tx, n *rbNode[V], red bool) error {
	return stm.WriteRefT(tx, &n.red, colorCell(red))
}

// isRed reads n's colour; an empty link counts as black.
func isRed[V any](tx stm.Tx, n *rbNode[V]) (bool, error) {
	if n == nil {
		return false, nil
	}
	return stm.ReadT(tx, &n.red)
}

// Get returns the value stored under key.
func (t *RBTree[V]) Get(tx stm.Tx, key int64) (V, bool, error) {
	var zero V
	n, err := stm.ReadRefT(tx, &t.root)
	for err == nil && n != nil {
		if key == n.key {
			v, err := stm.ReadT(tx, &n.val)
			return v, err == nil, err
		}
		n, err = stm.ReadRefT(tx, n.child(key > n.key))
	}
	return zero, false, err
}

// Contains reports whether key is in the set.
func (t *RBTree[V]) Contains(tx stm.Tx, key int64) (bool, error) {
	_, ok, err := t.Get(tx, key)
	return ok, err
}

// GetRO is Get for read-only snapshot transactions: the same descent with
// every child hop validating inline against the snapshot instead of growing
// a read log.
func (t *RBTree[V]) GetRO(tx *stm.ROTx, key int64) (V, bool, error) {
	var zero V
	n, err := stm.ReadRefTRO(tx, &t.root)
	for err == nil && n != nil {
		if key == n.key {
			v, err := stm.ReadTRO(tx, &n.val)
			return v, err == nil, err
		}
		n, err = stm.ReadRefTRO(tx, n.child(key > n.key))
	}
	return zero, false, err
}

// ContainsRO reports whether key is in the set, under the GetRO protocol.
func (t *RBTree[V]) ContainsRO(tx *stm.ROTx, key int64) (bool, error) {
	_, ok, err := t.GetRO(tx, key)
	return ok, err
}

// rbMaxDepth bounds a recorded path. A red-black tree whose longest path
// holds h nodes has at least 2^(h/2)-1 of them, so 62 levels (plus the two
// entries an update adds below its search path) cover two billion nodes —
// more than 200 GB of them; a deeper tree fails with an index panic.
const rbMaxDepth = 64

// rbPath is the search path of one update, root first, kept on the stack in
// place of parent pointers: node[i] sits at depth i and the path leaves it
// through its right[i] link.
type rbPath[V any] struct {
	node  [rbMaxDepth]*rbNode[V]
	right [rbMaxDepth]bool
	len   int
}

func (p *rbPath[V]) push(n *rbNode[V], right bool) {
	p.node[p.len], p.right[p.len] = n, right
	p.len++
}

// link returns the link that holds the path's node at depth k: the root
// link, or the link the path took out of the node above. link(p.len) is
// where the path ends.
func (t *RBTree[V]) link(p *rbPath[V], k int) *stm.TVar[rbNode[V]] {
	if k == 0 {
		return &t.root
	}
	return p.node[k-1].child(p.right[k-1])
}

// descend walks from the root towards key, recording every node it passes,
// and returns the node holding key, or nil where the path ends without one.
func (t *RBTree[V]) descend(tx stm.Tx, p *rbPath[V], key int64) (*rbNode[V], error) {
	n, err := stm.ReadRefT(tx, &t.root)
	for err == nil && n != nil && key != n.key {
		right := key > n.key
		p.push(n, right)
		n, err = stm.ReadRefT(tx, n.child(right))
	}
	return n, err
}

// Insert adds key with the given value and reports whether the key was new
// (false means the value of an existing key was updated).
func (t *RBTree[V]) Insert(tx stm.Tx, key int64, val V) (bool, error) {
	var p rbPath[V]
	n, err := t.descend(tx, &p, key)
	if err != nil {
		return false, err
	}
	if n != nil {
		return false, stm.WriteT(tx, &n.val, val)
	}
	// A node is born red unless it is the root.
	n = newRBNode(key, val, p.len > 0)
	if err := stm.WriteRefT(tx, t.link(&p, p.len), n); err != nil {
		return false, err
	}
	p.push(n, false)
	return true, t.insertRepair(tx, &p)
}

// insertRepair removes the red-red violation the red node at the end of p
// may form with its parent. Each round either recolours and moves the red
// two levels up, or ends the repair with at most two rotations.
func (t *RBTree[V]) insertRepair(tx stm.Tx, p *rbPath[V]) error {
	// x, the red node, is at depth k. At depth 1 its parent is the black
	// root.
	for k := p.len - 1; k >= 2; k -= 2 {
		x, par, g := p.node[k], p.node[k-1], p.node[k-2]
		parRed, err := stm.ReadT(tx, &par.red)
		if err != nil || !parRed {
			return err
		}
		// par is red, so g is black and par is its child on this side:
		side := p.right[k-2]
		uncle, err := stm.ReadRefT(tx, g.child(!side))
		if err != nil {
			return err
		}
		uncleRed, err := isRed(tx, uncle)
		if err != nil {
			return err
		}
		if uncleRed {
			// g hands its black down to par and uncle. A root g keeps
			// its own black as well (every path gains one).
			if err := setColor(tx, par, false); err != nil {
				return err
			}
			if err := setColor(tx, uncle, false); err != nil {
				return err
			}
			if k == 2 {
				return nil
			}
			if err := setColor(tx, g, true); err != nil {
				return err
			}
			continue
		}
		if p.right[k-1] != side {
			// x is par's inner child: rotate it above par, after which
			// par is the outer red child of x.
			inner, err := stm.ReadRefT(tx, x.child(side))
			if err != nil {
				return err
			}
			if err := rotate(tx, g.child(side), par, x, inner, side); err != nil {
				return err
			}
			par = x
		}
		// Rotate par above g and swap their colours.
		inner, err := stm.ReadRefT(tx, par.child(!side))
		if err != nil {
			return err
		}
		if err := rotate(tx, t.link(p, k-2), g, par, inner, !side); err != nil {
			return err
		}
		if err := setColor(tx, par, false); err != nil {
			return err
		}
		return setColor(tx, g, true)
	}
	return nil
}

// Delete removes key and reports whether it was present.
func (t *RBTree[V]) Delete(tx stm.Tx, key int64) (bool, error) {
	var p rbPath[V]
	z, err := t.descend(tx, &p, key)
	if err != nil || z == nil {
		return false, err
	}
	zl, err := stm.ReadRefT(tx, &z.kids[0])
	if err != nil {
		return false, err
	}
	zr, err := stm.ReadRefT(tx, &z.kids[1])
	if err != nil {
		return false, err
	}
	// z lets go of its children. A removed node stays referenced for a
	// while — by a reader standing on it, by a slot of some thread's read
	// log not yet overwritten — and with its links intact it would keep
	// alive the nodes they point at, which when they are removed keep
	// theirs: garbage chained to one stale reference without end.
	if zl != nil {
		if err := stm.WriteRefT(tx, &z.kids[0], nil); err != nil {
			return false, err
		}
	}
	if zr != nil {
		if err := stm.WriteRefT(tx, &z.kids[1], nil); err != nil {
			return false, err
		}
	}
	if zl != nil && zr != nil {
		err = t.deleteInner(tx, &p, z, zl, zr)
		return err == nil, err
	}
	// At most one child: it (or nothing) moves up into z's place.
	x := zl
	if x == nil {
		x = zr
	}
	if err := stm.WriteRefT(tx, t.link(&p, p.len), x); err != nil {
		return false, err
	}
	zRed, err := stm.ReadT(tx, &z.red)
	if err == nil && !zRed {
		err = t.deleteRepair(tx, &p, x)
	}
	return err == nil, err
}

// deleteInner removes z, found at the end of p with children zl and zr, by
// transplanting its successor: y, the leftmost node of z's right subtree,
// gives its place to its right child x and takes over z's place, children
// and colour. What the tree loses is a node of y's colour at y's old place.
func (t *RBTree[V]) deleteInner(tx stm.Tx, p *rbPath[V], z, zl, zr *rbNode[V]) error {
	zk := p.len
	p.push(z, true) // y's seat
	y := zr
	for {
		yl, err := stm.ReadRefT(tx, &y.kids[0])
		if err != nil {
			return err
		}
		if yl == nil {
			break
		}
		p.push(y, false)
		y = yl
	}
	p.node[zk] = y
	x, err := stm.ReadRefT(tx, &y.kids[1])
	if err != nil {
		return err
	}
	if y != zr { // otherwise x stays where it is, y's right child
		if err := stm.WriteRefT(tx, t.link(p, p.len), x); err != nil {
			return err
		}
		if err := stm.WriteRefT(tx, &y.kids[1], zr); err != nil {
			return err
		}
	}
	if err := stm.WriteRefT(tx, &y.kids[0], zl); err != nil {
		return err
	}
	if err := stm.WriteRefT(tx, t.link(p, zk), y); err != nil {
		return err
	}
	yRed, err := stm.ReadT(tx, &y.red)
	if err != nil {
		return err
	}
	zRed, err := stm.ReadT(tx, &z.red)
	if err != nil {
		return err
	}
	if yRed != zRed {
		if err := setColor(tx, y, zRed); err != nil {
			return err
		}
	}
	if yRed {
		return nil
	}
	return t.deleteRepair(tx, p, x)
}

// deleteRepair restores the black height below the link at the end of p,
// whose subtree x has lost a black node. Each round either recolours x's
// sibling and moves the shortage one level up, or ends the repair with at
// most three rotations.
func (t *RBTree[V]) deleteRepair(tx stm.Tx, p *rbPath[V], x *rbNode[V]) error {
	for k := p.len; ; k-- { // x is at depth k
		xRed, err := isRed(tx, x)
		if err != nil {
			return err
		}
		if xRed {
			return setColor(tx, x, false)
		}
		if k == 0 {
			// Short at the root is short on every path: no violation.
			return nil
		}
		par, side := p.node[k-1], p.right[k-1]
		// The sibling's subtree is one black taller than x's, so neither
		// w nor, when w is red, its children are nil.
		w, err := stm.ReadRefT(tx, par.child(!side))
		if err != nil {
			return err
		}
		wRed, err := stm.ReadT(tx, &w.red)
		if err != nil {
			return err
		}
		if wRed {
			// A red sibling has a black parent: rotate it above par and
			// swap their colours, which puts x one level down, under a
			// red parent and beside a black sibling.
			near, err := stm.ReadRefT(tx, w.child(side))
			if err != nil {
				return err
			}
			if err := rotate(tx, t.link(p, k-1), par, w, near, side); err != nil {
				return err
			}
			if err := setColor(tx, w, false); err != nil {
				return err
			}
			if err := setColor(tx, par, true); err != nil {
				return err
			}
			p.node[k-1] = w
			p.node[k], p.right[k] = par, side
			k++
			w = near
		}
		near, err := stm.ReadRefT(tx, w.child(side))
		if err != nil {
			return err
		}
		far, err := stm.ReadRefT(tx, w.child(!side))
		if err != nil {
			return err
		}
		farRed, err := isRed(tx, far)
		if err != nil {
			return err
		}
		top, topRed := w, false // what rises above par, and its colour
		if farRed {
			if err := setColor(tx, far, false); err != nil {
				return err
			}
		} else {
			nearRed, err := isRed(tx, near)
			if err != nil {
				return err
			}
			if !nearRed {
				// Black nephews: w can turn red, which evens out par's
				// two sides and leaves par's whole subtree one short.
				if err := setColor(tx, w, true); err != nil {
					return err
				}
				x = par
				continue
			}
			// Only the near nephew is red: it rises above w first, and
			// then, like a sibling with a red far child, above par. (w
			// keeps its black: the red the first step would give it the
			// second would take back.)
			nearFar, err := stm.ReadRefT(tx, near.child(!side))
			if err != nil {
				return err
			}
			if err := rotate(tx, par.child(!side), w, near, nearFar, !side); err != nil {
				return err
			}
			top, topRed = near, true
			if near, err = stm.ReadRefT(tx, near.child(side)); err != nil {
				return err
			}
		}
		// top takes par's place and colour; par comes down black on x's
		// side, which makes up the missing black.
		if err := rotate(tx, t.link(p, k-1), par, top, near, side); err != nil {
			return err
		}
		parRed, err := stm.ReadT(tx, &par.red)
		if err != nil {
			return err
		}
		if topRed != parRed {
			if err := setColor(tx, top, parRed); err != nil {
				return err
			}
		}
		if parRed {
			return setColor(tx, par, false)
		}
		return nil
	}
}

// rotate lifts top, down's child opposite side, into down's place under
// link: down becomes top's child on side and adopts inner, the subtree top
// held there.
func rotate[V any](tx stm.Tx, link *stm.TVar[rbNode[V]], down, top, inner *rbNode[V], side bool) error {
	if err := stm.WriteRefT(tx, down.child(!side), inner); err != nil {
		return err
	}
	if err := stm.WriteRefT(tx, top.child(side), down); err != nil {
		return err
	}
	return stm.WriteRefT(tx, link, top)
}

// Size counts the keys (a read-only full traversal).
func (t *RBTree[V]) Size(tx stm.Tx) (int, error) {
	size := 0
	err := t.walk(tx, &t.root, func(*rbNode[V]) { size++ })
	return size, err
}

// walk visits the nodes below link in key order.
func (t *RBTree[V]) walk(tx stm.Tx, link *stm.TVar[rbNode[V]], visit func(*rbNode[V])) error {
	n, err := stm.ReadRefT(tx, link)
	if err != nil || n == nil {
		return err
	}
	if err := t.walk(tx, &n.kids[0], visit); err != nil {
		return err
	}
	visit(n)
	return t.walk(tx, &n.kids[1], visit)
}

// CheckInvariants verifies the red-black invariants inside a transaction:
// the root is black, no red node has a red child, every path from the root
// to an empty link crosses the same number of black nodes, and keys are in
// search-tree order. It returns the black height; an error names the rule
// that broke and the key it broke at.
func (t *RBTree[V]) CheckInvariants(tx stm.Tx) (int, error) {
	return t.check(tx, &t.root, nil, nil, nil)
}

type errInvariant string

func (e errInvariant) Error() string { return "rbtree invariant violated: " + string(e) }

// check verifies the subtree below link, which hangs under parent (nil for
// the root) and whose keys must lie strictly between *lo and *hi where those
// are set, and returns its black height.
func (t *RBTree[V]) check(tx stm.Tx, link *stm.TVar[rbNode[V]], parent *rbNode[V], lo, hi *int64) (int, error) {
	n, err := stm.ReadRefT(tx, link)
	if err != nil || n == nil {
		return 1, err
	}
	if lo != nil && n.key <= *lo {
		return 0, errInvariant(fmt.Sprintf("order: key %d is in the right subtree of key %d", n.key, *lo))
	}
	if hi != nil && n.key >= *hi {
		return 0, errInvariant(fmt.Sprintf("order: key %d is in the left subtree of key %d", n.key, *hi))
	}
	red, err := stm.ReadT(tx, &n.red)
	if err != nil {
		return 0, err
	}
	if red {
		if parent == nil {
			return 0, errInvariant(fmt.Sprintf("red root: key %d", n.key))
		}
		parentRed, err := stm.ReadT(tx, &parent.red)
		if err != nil {
			return 0, err
		}
		if parentRed {
			return 0, errInvariant(fmt.Sprintf("red-red: red key %d has the red child %d", parent.key, n.key))
		}
	}
	lbh, err := t.check(tx, &n.kids[0], n, lo, &n.key)
	if err != nil {
		return 0, err
	}
	rbh, err := t.check(tx, &n.kids[1], n, &n.key, hi)
	if err != nil {
		return 0, err
	}
	if lbh != rbh {
		return 0, errInvariant(fmt.Sprintf("black height: %d to the left of key %d, %d to its right", lbh, n.key, rbh))
	}
	if !red {
		lbh++
	}
	return lbh, nil
}
