package main

// The one verdict every scenario ends in (see the package comment).

import (
	"cmp"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// ledger holds every acknowledged increment of a run: per key, one bitset of
// acked values for each drill phase, so its size follows the counters' final
// values, not the op count.
type ledger struct {
	phases []string     // what each phase is called ("before kill 1", ...)
	phase  atomic.Int32 // the phase an op issued now belongs to; a drill moves it
	acked  atomic.Uint64
	keys   []keyAcks
}

type keyAcks struct {
	mu    sync.Mutex
	bits  []bitset // bits[p] holds the values acked in phase p
	lost  uint64   // values acked twice, or below 1
	first error    // the first of them
}

type bitset []uint64

func (b bitset) has(v uint64) bool { return v/64 < uint64(len(b)) && b[v/64]&(1<<(v%64)) != 0 }

func newLedger(keys int, phases ...string) *ledger {
	return &ledger{phases: phases, keys: make([]keyAcks, keys)}
}

// record notes that an op issued in phase p had its increment of key
// acknowledged with value v.
func (l *ledger) record(key uint64, v int64, p int) {
	l.acked.Add(1)
	k := &l.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	var lost error
	for q, b := range k.bits {
		if b.has(uint64(v)) { // false for v < 1: no bitset reaches that far
			lost = fmt.Errorf("key %d's value %d was acked %s and again %s", key, v, l.phases[q], l.phases[p])
		}
	}
	if v < 1 {
		lost = fmt.Errorf("key %d's increment was acked %s with value %d", key, l.phases[p], v)
	}
	if lost != nil {
		k.lost++
		k.first = cmp.Or(k.first, lost)
		return
	}
	for len(k.bits) <= p {
		k.bits = append(k.bits, nil)
	}
	b := &k.bits[p]
	for len(*b) <= int(v/64) {
		*b = append(*b, 0)
	}
	(*b)[v/64] |= 1 << (v % 64)
}

// verdict judges the run's acks against one consistent snapshot of the
// counters and returns the acked count and the counters' final sum. It fails
// on a value acked twice or above its key's final value, naming the first
// such write. final-acked is the number of unacknowledged increments that
// landed: a drill's kill or quit can eat the ack of an increment that
// committed, so a drill reports them, and load + verify, where every reply
// arrives, fails on them.
func (l *ledger) verdict(snap map[uint64]string, drill bool) (acked, final uint64, err error) {
	var lost uint64
	var first error
	for key := range l.keys {
		n, err := strconv.ParseUint(snap[uint64(key)], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("counter key %d: %w", key, err)
		}
		final += n
		k := &l.keys[key]
		lost += k.lost
		first = cmp.Or(first, k.first)
		for p, b := range k.bits {
			for v := n + 1; v < uint64(len(b))*64; v++ {
				if b.has(v) {
					lost++
					first = cmp.Or(first, fmt.Errorf("key %d's value %d was acked %s, but the key ends at %d", key, v, l.phases[p], n))
				}
			}
		}
	}
	acked = l.acked.Load()
	switch {
	case lost > 0:
		return acked, final, fmt.Errorf("LOST UPDATES: %d acknowledged increment(s) lost, the first: %w", lost, first)
	case !drill && final > acked:
		return acked, final, fmt.Errorf("uncounted increments: counters sum to %d but only %d increments were acknowledged (a response was lost in flight)",
			final, acked)
	}
	return acked, final, nil
}
