// Package verify provides black-box serializability checkers for the STM
// engines: workloads whose committed histories can be certified after the
// fact. The main tool is chain certification: every update transaction
// writes a unique token and records which token it replaced, so the
// committed history of a Var must form one linear chain — a fork, cycle, or
// orphan proves an atomicity violation. A multi-var variant checks that
// read-only snapshots observe mutually consistent chain positions.
package verify

import (
	"fmt"
	"sort"
	"sync"

	"github.com/shrink-tm/shrink/internal/stm"
)

// token is a unique value written by one committed update.
type token struct {
	// Writer and Seq identify the update globally.
	Writer int
	Seq    int
	// Prev is the token this update observed and replaced.
	Prev *token
}

func (t *token) String() string {
	if t == nil {
		return "genesis"
	}
	return fmt.Sprintf("w%d#%d", t.Writer, t.Seq)
}

// Chain drives read-modify-write transactions over one TVar and certifies
// the committed history afterwards.
type Chain struct {
	v *stm.TVar[*token]

	mu        sync.Mutex
	committed []*token
}

// NewChain returns a chain over a fresh TVar (genesis value: nil token).
func NewChain() *Chain {
	return &Chain{v: stm.NewT[*token](nil)}
}

// Var exposes the underlying TVar (to compose into larger transactions).
func (c *Chain) Var() *stm.TVar[*token] { return c.v }

// Update runs one read-modify-write on the chain using th and records the
// committed token. seq must be unique per (writer, seq) pair.
func (c *Chain) Update(th stm.Thread, writer, seq int) error {
	tok := &token{Writer: writer, Seq: seq}
	err := th.Atomically(func(tx stm.Tx) error {
		prev, err := stm.ReadT(tx, c.v)
		if err != nil {
			return err
		}
		tok.Prev = prev
		return stm.WriteT(tx, c.v, tok)
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.committed = append(c.committed, tok)
	c.mu.Unlock()
	return nil
}

// UpdateIn performs the chain step inside an existing transaction; the
// caller must invoke Committed(tok) only if the transaction commits.
func (c *Chain) UpdateIn(tx stm.Tx, writer, seq int) (*token, error) {
	prev, err := stm.ReadT(tx, c.v)
	if err != nil {
		return nil, err
	}
	tok := &token{Writer: writer, Seq: seq, Prev: prev}
	if err := stm.WriteT(tx, c.v, tok); err != nil {
		return nil, err
	}
	return tok, nil
}

// Committed records a token written by a committed composite transaction.
func (c *Chain) Committed(tok *token) {
	c.mu.Lock()
	c.committed = append(c.committed, tok)
	c.mu.Unlock()
}

// Len returns the number of committed updates.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.committed)
}

// head returns the chain's current token, read by th in a read-only
// transaction.
func (c *Chain) head(th stm.Thread) (*token, error) {
	var h *token
	err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		var err error
		h, err = stm.ReadTRO(tx, c.v)
		return err
	})
	return h, err
}

// Check certifies the committed history: every committed token's Prev must
// itself be a committed token (or genesis), no two tokens may share a Prev
// (a fork means two transactions both "replaced" the same value — lost
// update), and following Prev links from the current value, which th reads,
// must visit every committed token exactly once.
func (c *Chain) Check(th stm.Thread) error {
	c.mu.Lock()
	committed := append([]*token(nil), c.committed...)
	c.mu.Unlock()

	set := make(map[*token]bool, len(committed))
	for _, t := range committed {
		if set[t] {
			return fmt.Errorf("token %v committed twice", t)
		}
		set[t] = true
	}
	seenPrev := make(map[*token]*token, len(committed))
	for _, t := range committed {
		if t.Prev != nil && !set[t.Prev] {
			return fmt.Errorf("token %v replaced uncommitted token %v (dirty read)", t, t.Prev)
		}
		if other, dup := seenPrev[t.Prev]; dup {
			return fmt.Errorf("fork: %v and %v both replaced %v (lost update)", t, other, t.Prev)
		}
		seenPrev[t.Prev] = t
	}
	// Walk back from the head: must cover all committed tokens.
	head, err := c.head(th)
	if err != nil {
		return err
	}
	n := 0
	for t := head; t != nil; t = t.Prev {
		if !set[t] {
			return fmt.Errorf("chain contains uncommitted token %v", t)
		}
		n++
		if n > len(committed) {
			return fmt.Errorf("chain longer than committed set (cycle?)")
		}
	}
	if n != len(committed) {
		return fmt.Errorf("chain covers %d of %d committed tokens (orphans)", n, len(committed))
	}
	return nil
}

// Index assigns each committed token its position in the certified chain
// (genesis = 0, first update = 1, ...), reading the head with th. Call only
// after Check succeeds.
func (c *Chain) Index(th stm.Thread) (map[*token]int, error) {
	head, err := c.head(th)
	if err != nil {
		return nil, err
	}
	var order []*token
	for t := head; t != nil; t = t.Prev {
		order = append(order, t)
	}
	idx := make(map[*token]int, len(order))
	for i, t := range order {
		idx[t] = len(order) - i
	}
	return idx, nil
}

// SnapshotChecker certifies multi-var atomicity: readers record the pair of
// tokens they observed across two chains inside one transaction; a pair is
// coherent with serializability only if no later-committed token of one
// chain was required to be visible given the other (checked via the
// commit-version stamps the reader also records).
type SnapshotChecker struct {
	A, B *Chain

	mu    sync.Mutex
	pairs []snapshotPair
}

type snapshotPair struct {
	a, b *token
}

// NewSnapshotChecker returns a checker over two fresh chains.
func NewSnapshotChecker() *SnapshotChecker {
	return &SnapshotChecker{A: NewChain(), B: NewChain()}
}

// ReadPair reads both chains in one transaction and records the snapshot.
func (s *SnapshotChecker) ReadPair(th stm.Thread) error {
	var a, b *token
	err := th.Atomically(func(tx stm.Tx) error {
		var err error
		if a, err = stm.ReadT(tx, s.A.v); err != nil {
			return err
		}
		b, err = stm.ReadT(tx, s.B.v)
		return err
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.pairs = append(s.pairs, snapshotPair{a: a, b: b})
	s.mu.Unlock()
	return nil
}

// UpdateBoth advances both chains in a single transaction, keeping them in
// lockstep: after every committed update the chains have equal length, so
// any snapshot that observes unequal positions is torn.
func (s *SnapshotChecker) UpdateBoth(th stm.Thread, writer, seq int) error {
	var ta, tb *token
	err := th.Atomically(func(tx stm.Tx) error {
		var err error
		ta, err = s.A.UpdateIn(tx, writer, seq)
		if err != nil {
			return err
		}
		tb, err = s.B.UpdateIn(tx, writer, seq)
		return err
	})
	if err != nil {
		return err
	}
	s.A.Committed(ta)
	s.B.Committed(tb)
	return nil
}

// Check certifies both chains, reading their heads with th, and then every
// recorded snapshot: because updates advance both chains atomically and in
// lockstep, a coherent snapshot must observe the same chain position on A
// and B.
func (s *SnapshotChecker) Check(th stm.Thread) error {
	if err := s.A.Check(th); err != nil {
		return fmt.Errorf("chain A: %w", err)
	}
	if err := s.B.Check(th); err != nil {
		return fmt.Errorf("chain B: %w", err)
	}
	idxA, err := s.A.Index(th)
	if err != nil {
		return err
	}
	idxB, err := s.B.Index(th)
	if err != nil {
		return err
	}
	s.mu.Lock()
	pairs := append([]snapshotPair(nil), s.pairs...)
	s.mu.Unlock()
	violations := make([]string, 0)
	for _, p := range pairs {
		pa, pb := 0, 0
		if p.a != nil {
			pa = idxA[p.a]
		}
		if p.b != nil {
			pb = idxB[p.b]
		}
		if pa != pb {
			violations = append(violations,
				fmt.Sprintf("snapshot observed A@%d (%v) with B@%d (%v)", pa, p.a, pb, p.b))
		}
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		return fmt.Errorf("%d torn snapshots, first: %s", len(violations), violations[0])
	}
	return nil
}

// Pairs returns the number of recorded snapshots.
func (s *SnapshotChecker) Pairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pairs)
}
