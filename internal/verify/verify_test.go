package verify_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
	"github.com/shrink-tm/shrink/internal/verify"
)

func engines() map[string]func() stm.TM {
	return map[string]func() stm.TM{
		"swiss": func() stm.TM {
			return swiss.New(swiss.Options{})
		},
		"swiss-shrink": func() stm.TM {
			return swiss.New(swiss.Options{
				Scheduler: sched.NewShrink(sched.DefaultShrinkConfig()),
			})
		},
		"tiny": func() stm.TM {
			return tiny.New(tiny.Options{Wait: stm.WaitPreemptive})
		},
		"tiny-shrink": func() stm.TM {
			return tiny.New(tiny.Options{
				Scheduler: sched.NewShrink(sched.DefaultShrinkConfig()),
				Wait:      stm.WaitPreemptive,
			})
		},
	}
}

// TestChainCertification: concurrent RMW updates must form one linear
// chain on every engine/scheduler combination.
func TestChainCertification(t *testing.T) {
	for name, mk := range engines() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			tm := mk()
			c := verify.NewChain()
			const threads, updates = 4, 150
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				th := tm.Register(fmt.Sprintf("t%d", w))
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < updates; i++ {
						if err := c.Update(th, w, i); err != nil {
							t.Errorf("update: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := c.Len(); got != threads*updates {
				t.Fatalf("committed %d updates, want %d", got, threads*updates)
			}
			if err := c.Check(); err != nil {
				t.Fatalf("chain certification failed: %v", err)
			}
		})
	}
}

// TestSnapshotCertification: readers must never observe the two lockstep
// chains at different positions.
func TestSnapshotCertification(t *testing.T) {
	for name, mk := range engines() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			tm := mk()
			s := verify.NewSnapshotChecker()
			const writers, readers, ops = 3, 2, 120
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				th := tm.Register(fmt.Sprintf("w%d", w))
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if err := s.UpdateBoth(th, w, i); err != nil {
							t.Errorf("update: %v", err)
							return
						}
					}
				}()
			}
			for r := 0; r < readers; r++ {
				th := tm.Register(fmt.Sprintf("r%d", r))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						if err := s.ReadPair(th); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if s.Pairs() != readers*ops {
				t.Fatalf("recorded %d snapshots, want %d", s.Pairs(), readers*ops)
			}
			if err := s.Check(); err != nil {
				t.Fatalf("snapshot certification failed: %v", err)
			}
		})
	}
}

// TestCheckerDetectsViolations: feed the checker corrupted histories and
// confirm it rejects them (the checker itself must not be vacuous).
func TestCheckerDetectsViolations(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("t0")

	t.Run("fork", func(t *testing.T) {
		c := verify.NewChain()
		if err := c.Update(th, 0, 0); err != nil {
			t.Fatal(err)
		}
		// Simulate a lost update: replay a second update claiming to
		// replace the same predecessor (genesis).
		tok, err := func() (any, error) {
			var tk any
			err := th.Atomically(func(tx stm.Tx) error {
				var err error
				tk, err = c.UpdateIn(tx, 1, 0)
				return err
			})
			return tk, err
		}()
		_ = tok
		if err != nil {
			t.Fatal(err)
		}
		// The second token replaced the first (correctly), but we lie
		// to the checker by not registering it: the chain head now
		// references an uncommitted token.
		if err := c.Check(); err == nil {
			t.Fatal("checker accepted a chain containing an uncommitted head")
		}
	})

	t.Run("orphan", func(t *testing.T) {
		c := verify.NewChain()
		if err := c.Update(th, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(th, 0, 1); err != nil {
			t.Fatal(err)
		}
		// Reset the var to genesis behind the checker's back: committed
		// tokens become unreachable.
		if err := th.Atomically(func(tx stm.Tx) error {
			return tx.Write(c.Var(), nil)
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Check(); err == nil {
			t.Fatal("checker accepted orphaned committed tokens")
		}
	})
}

// TestChainUnderContention exercises the checker with a Shrink scheduler
// under deliberately high contention (single chain, many threads).
func TestChainUnderContention(t *testing.T) {
	tm := tiny.New(tiny.Options{
		Scheduler: sched.NewShrink(sched.DefaultShrinkConfig()),
		Wait:      stm.WaitPreemptive,
	})
	c := verify.NewChain()
	const threads, updates = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := tm.Register(fmt.Sprintf("t%d", w))
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				if err := c.Update(th, w, i); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if rate := tm.Stats().CommitRate(); rate == 1 {
		t.Log("note: no contention observed in this run")
	}
}
