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
// assertion per transactional operation. The tree, the hash map, the sorted
// list and the array hold those TVars by value — in the node, in the table's
// slice — and publish links as cells that already exist, so a key is one
// object besides its value and linking allocates nothing.
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
//
// A tree must not be copied: its links point at its own leaf field.
type RBTree[V any] struct {
	root stm.TVar[*rbNode[V]] // nil when empty
	// leaf is always nil. Its address is the immutable cell behind every
	// empty link, so neither creating a node nor emptying a link spills
	// a cell for it.
	leaf *rbNode[V]
}

// rbNode lays a node's four transactional variables out by value, so a node
// is one allocation (80 bytes) and a hop from a link to the child's key is
// two dependent loads. What a lookup reads on its way down — key, self and
// the two links — is the node's first 48 bytes. Keys are immutable per node.
type rbNode[V any] struct {
	key int64
	// self is the node's own address in an immutable cell: every link
	// that points at the node publishes &self, so linking never
	// allocates and the cell a reader dereferences shares the key's
	// cache line.
	self  *rbNode[V]
	left  stm.TVar[*rbNode[V]]
	right stm.TVar[*rbNode[V]]
	val   stm.TVar[V]
	red   stm.TVar[bool]
}

// The two colours, as the immutable cells every colour var points at.
var rbBlack, rbRed = false, true

// NewRBTree returns an empty tree.
func NewRBTree[V any]() *RBTree[V] {
	t := &RBTree[V]{}
	t.root.InitRef(&t.leaf)
	return t
}

func (t *RBTree[V]) newNode(key int64, val V, red bool) *rbNode[V] {
	n := &rbNode[V]{key: key}
	n.self = n
	n.val.InitRef(&val)
	n.left.InitRef(&t.leaf)
	n.right.InitRef(&t.leaf)
	n.red.InitRef(colorCell(red))
	return n
}

func colorCell(red bool) *bool {
	if red {
		return &rbRed
	}
	return &rbBlack
}

// child returns n's right or left link.
func (n *rbNode[V]) child(right bool) *stm.TVar[*rbNode[V]] {
	if right {
		return &n.right
	}
	return &n.left
}

// setColor writes n's colour. Callers skip the call when they know the
// colour already matches, so a repair locks only what it changes.
func setColor[V any](tx stm.Tx, n *rbNode[V], red bool) error {
	return stm.WriteRefT(tx, &n.red, colorCell(red))
}

// setLink points link at n (nil empties it), publishing an existing cell.
func (t *RBTree[V]) setLink(tx stm.Tx, link *stm.TVar[*rbNode[V]], n *rbNode[V]) error {
	if n == nil {
		return stm.WriteRefT(tx, link, &t.leaf)
	}
	return stm.WriteRefT(tx, link, &n.self)
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
	n, err := stm.ReadT(tx, &t.root)
	if err != nil {
		return zero, false, err
	}
	for n != nil {
		switch {
		case key < n.key:
			if n, err = stm.ReadT(tx, &n.left); err != nil {
				return zero, false, err
			}
		case key > n.key:
			if n, err = stm.ReadT(tx, &n.right); err != nil {
				return zero, false, err
			}
		default:
			v, err := stm.ReadT(tx, &n.val)
			if err != nil {
				return zero, false, err
			}
			return v, true, nil
		}
	}
	return zero, false, nil
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
	n, err := stm.ReadTRO(tx, &t.root)
	if err != nil {
		return zero, false, err
	}
	for n != nil {
		switch {
		case key < n.key:
			if n, err = stm.ReadTRO(tx, &n.left); err != nil {
				return zero, false, err
			}
		case key > n.key:
			if n, err = stm.ReadTRO(tx, &n.right); err != nil {
				return zero, false, err
			}
		default:
			v, err := stm.ReadTRO(tx, &n.val)
			if err != nil {
				return zero, false, err
			}
			return v, true, nil
		}
	}
	return zero, false, nil
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
func (t *RBTree[V]) link(p *rbPath[V], k int) *stm.TVar[*rbNode[V]] {
	if k == 0 {
		return &t.root
	}
	return p.node[k-1].child(p.right[k-1])
}

// descend walks from the root towards key, recording every node it passes,
// and returns the node holding key, or nil where the path ends without one.
func (t *RBTree[V]) descend(tx stm.Tx, p *rbPath[V], key int64) (*rbNode[V], error) {
	n, err := stm.ReadT(tx, &t.root)
	for err == nil && n != nil && n.key != key {
		right := key > n.key
		p.push(n, right)
		n, err = stm.ReadT(tx, n.child(right))
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
	n = t.newNode(key, val, p.len > 0)
	if err := t.setLink(tx, t.link(&p, p.len), n); err != nil {
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
		uncle, err := stm.ReadT(tx, g.child(!side))
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
			inner, err := stm.ReadT(tx, x.child(side))
			if err != nil {
				return err
			}
			if err := t.rotate(tx, g.child(side), par, x, inner, side); err != nil {
				return err
			}
			par = x
		}
		// Rotate par above g and swap their colours.
		inner, err := stm.ReadT(tx, par.child(!side))
		if err != nil {
			return err
		}
		if err := t.rotate(tx, t.link(p, k-2), g, par, inner, !side); err != nil {
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
	zl, err := stm.ReadT(tx, &z.left)
	if err != nil {
		return false, err
	}
	zr, err := stm.ReadT(tx, &z.right)
	if err != nil {
		return false, err
	}
	// z lets go of its children. A removed node stays referenced for a
	// while — by a reader standing on it, by a slot of some thread's read
	// log not yet overwritten — and with its links intact it would keep
	// alive the nodes they point at, which when they are removed keep
	// theirs: garbage chained to one stale reference without end.
	if zl != nil {
		if err := t.setLink(tx, &z.left, nil); err != nil {
			return false, err
		}
	}
	if zr != nil {
		if err := t.setLink(tx, &z.right, nil); err != nil {
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
	if err := t.setLink(tx, t.link(&p, p.len), x); err != nil {
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
		yl, err := stm.ReadT(tx, &y.left)
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
	x, err := stm.ReadT(tx, &y.right)
	if err != nil {
		return err
	}
	if y != zr { // otherwise x stays where it is, under y.right
		if err := t.setLink(tx, t.link(p, p.len), x); err != nil {
			return err
		}
		if err := t.setLink(tx, &y.right, zr); err != nil {
			return err
		}
	}
	if err := t.setLink(tx, &y.left, zl); err != nil {
		return err
	}
	if err := t.setLink(tx, t.link(p, zk), y); err != nil {
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
		w, err := stm.ReadT(tx, par.child(!side))
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
			near, err := stm.ReadT(tx, w.child(side))
			if err != nil {
				return err
			}
			if err := t.rotate(tx, t.link(p, k-1), par, w, near, side); err != nil {
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
		near, err := stm.ReadT(tx, w.child(side))
		if err != nil {
			return err
		}
		far, err := stm.ReadT(tx, w.child(!side))
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
			nearFar, err := stm.ReadT(tx, near.child(!side))
			if err != nil {
				return err
			}
			if err := t.rotate(tx, par.child(!side), w, near, nearFar, !side); err != nil {
				return err
			}
			top, topRed = near, true
			if near, err = stm.ReadT(tx, near.child(side)); err != nil {
				return err
			}
		}
		// top takes par's place and colour; par comes down black on x's
		// side, which makes up the missing black.
		if err := t.rotate(tx, t.link(p, k-1), par, top, near, side); err != nil {
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
func (t *RBTree[V]) rotate(tx stm.Tx, link *stm.TVar[*rbNode[V]], down, top, inner *rbNode[V], side bool) error {
	if err := t.setLink(tx, down.child(!side), inner); err != nil {
		return err
	}
	if err := t.setLink(tx, top.child(side), down); err != nil {
		return err
	}
	return t.setLink(tx, link, top)
}

// Size counts the keys (a read-only full traversal).
func (t *RBTree[V]) Size(tx stm.Tx) (int, error) {
	size := 0
	err := t.walk(tx, &t.root, func(*rbNode[V]) { size++ })
	return size, err
}

// Keys returns all keys in ascending order (read-only traversal).
func (t *RBTree[V]) Keys(tx stm.Tx) ([]int64, error) {
	var out []int64
	err := t.walk(tx, &t.root, func(n *rbNode[V]) { out = append(out, n.key) })
	return out, err
}

// walk visits the nodes below link in key order.
func (t *RBTree[V]) walk(tx stm.Tx, link *stm.TVar[*rbNode[V]], visit func(*rbNode[V])) error {
	n, err := stm.ReadT(tx, link)
	if err != nil || n == nil {
		return err
	}
	if err := t.walk(tx, &n.left, visit); err != nil {
		return err
	}
	visit(n)
	return t.walk(tx, &n.right, visit)
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
func (t *RBTree[V]) check(tx stm.Tx, link *stm.TVar[*rbNode[V]], parent *rbNode[V], lo, hi *int64) (int, error) {
	n, err := stm.ReadT(tx, link)
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
	lbh, err := t.check(tx, &n.left, n, lo, &n.key)
	if err != nil {
		return 0, err
	}
	rbh, err := t.check(tx, &n.right, n, &n.key, hi)
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
