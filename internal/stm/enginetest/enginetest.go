// Package enginetest provides a conformance suite that both STM engines
// (swiss and tiny) must pass: atomicity, isolation, conservation under
// concurrency, abort semantics, and scheduler plumbing.
// Engine test packages call Run with a factory.
package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
)

// Factory builds a TM with the given scheduler and wait policy.
type Factory func(s stm.Scheduler, w stm.WaitPolicy) stm.TM

// Run executes the full conformance suite against the factory.
func Run(t *testing.T, name string, factory Factory) {
	t.Run("SequentialReadWrite", func(t *testing.T) { testSequential(t, factory) })
	t.Run("ReadYourWrites", func(t *testing.T) { testReadYourWrites(t, factory) })
	t.Run("UserAbortDiscards", func(t *testing.T) { testUserAbort(t, factory) })
	t.Run("CounterAtomicity", func(t *testing.T) { testCounter(t, factory) })
	t.Run("BankConservation", func(t *testing.T) { testBank(t, factory, stm.NopScheduler{}, 16, "none") })
	t.Run("BankConservationShrink", func(t *testing.T) {
		testBank(t, factory, sched.NewShrink(sched.DefaultShrinkConfig()), 16, "shrink")
	})
	t.Run("BankConservationATS", func(t *testing.T) { testBank(t, factory, sched.NewATS(), 16, "ats") })
	t.Run("BankConservationPool", func(t *testing.T) { testBank(t, factory, sched.NewPool(), 16, "pool") })
	t.Run("BankConservationHotSpot", func(t *testing.T) { testBank(t, factory, stm.NopScheduler{}, 2, "hotspot") })
	t.Run("LongTransactionsCommit", func(t *testing.T) { testLongTransactions(t, factory) })
	t.Run("HeldLockRetriesWithoutBudget", func(t *testing.T) { testHeldLockRetries(t, factory) })
	t.Run("InvariantPairNeverTorn", func(t *testing.T) { testInvariantPair(t, factory) })
	t.Run("WriteSkewPrevented", func(t *testing.T) { testWriteSkew(t, factory) })
	t.Run("StatsAccounting", func(t *testing.T) { testStats(t, factory) })
	runRO(t, factory)
}

// readRO returns v's committed value, read by th through the read-only path.
func readRO[T any](t *testing.T, th stm.Thread, v *stm.TVar[T]) T {
	t.Helper()
	var got T
	if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
		var err error
		got, err = stm.ReadTRO(tx, v)
		return err
	}); err != nil {
		t.Fatalf("read-only read: %v", err)
	}
	return got
}

func testSequential(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT(10)
	err := th.Atomically(func(tx stm.Tx) error {
		got, err := stm.ReadT(tx, v)
		if err != nil {
			return err
		}
		if got != 10 {
			return fmt.Errorf("got %v, want 10", got)
		}
		return stm.WriteT(tx, v, 20)
	})
	if err != nil {
		t.Fatalf("tx1: %v", err)
	}
	err = th.Atomically(func(tx stm.Tx) error {
		got, err := stm.ReadT(tx, v)
		if err != nil {
			return err
		}
		if got != 20 {
			return fmt.Errorf("got %v, want 20", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("tx2: %v", err)
	}
}

func testReadYourWrites(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT(1)
	err := th.Atomically(func(tx stm.Tx) error {
		if err := stm.WriteT(tx, v, 2); err != nil {
			return err
		}
		got, err := stm.ReadT(tx, v)
		if err != nil {
			return err
		}
		if got != 2 {
			return fmt.Errorf("read-own-write got %v, want 2", got)
		}
		if err := stm.WriteT(tx, v, 3); err != nil {
			return err
		}
		got, err = stm.ReadT(tx, v)
		if err != nil {
			return err
		}
		if got != 3 {
			return fmt.Errorf("second read-own-write got %v, want 3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testUserAbort(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT(100)
	errBoom := errors.New("boom")
	err := th.Atomically(func(tx stm.Tx) error {
		if err := stm.WriteT(tx, v, 999); err != nil {
			return err
		}
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want boom", err)
	}
	err = th.Atomically(func(tx stm.Tx) error {
		got, err := stm.ReadT(tx, v)
		if err != nil {
			return err
		}
		if got != 100 {
			return fmt.Errorf("user abort leaked write: got %v, want 100", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ua := tm.Stats().UserAborts; ua != 1 {
		t.Fatalf("UserAborts = %d, want 1", ua)
	}
}

func testCounter(t *testing.T, factory Factory) {
	const threads, increments = 6, 300
	tm := factory(nil, stm.WaitPreemptive)
	counter := stm.NewT(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := tm.Register(fmt.Sprintf("t%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < increments; j++ {
				_ = th.Atomically(func(tx stm.Tx) error {
					n, err := stm.ReadT(tx, counter)
					if err != nil {
						return err
					}
					return stm.WriteT(tx, counter, n+1)
				})
			}
		}()
	}
	wg.Wait()
	th := tm.Register("checker")
	_ = th.Atomically(func(tx stm.Tx) error {
		n, err := stm.ReadT(tx, counter)
		if err != nil {
			return err
		}
		if n != threads*increments {
			t.Errorf("counter = %d, want %d", n, threads*increments)
		}
		return nil
	})
}

// testBank runs concurrent transfers among accounts Vars under scheduler s
// and audits that money is conserved. With two accounts every pair of
// transfers conflicts, so the engine's own conflict policy decides each one.
func testBank(t *testing.T, factory Factory, s stm.Scheduler, accounts int, label string) {
	const (
		threads   = 6
		transfers = 250
		initial   = 1000
	)
	tm := factory(s, stm.WaitPreemptive)
	vars := make([]*stm.TVar[int], accounts)
	for i := range vars {
		vars[i] = stm.NewT(initial)
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := tm.Register(fmt.Sprintf("t%d", i))
		rng := rand.New(rand.NewSource(int64(i) + 42))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < transfers; j++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					to = (to + 1) % accounts
				}
				amount := rng.Intn(50)
				_ = th.Atomically(func(tx stm.Tx) error {
					fb, err := stm.ReadT(tx, vars[from])
					if err != nil {
						return err
					}
					tb, err := stm.ReadT(tx, vars[to])
					if err != nil {
						return err
					}
					if err := stm.WriteT(tx, vars[from], fb-amount); err != nil {
						return err
					}
					return stm.WriteT(tx, vars[to], tb+amount)
				})
			}
		}()
	}
	wg.Wait()
	th := tm.Register("auditor")
	err := th.Atomically(func(tx stm.Tx) error {
		total := 0
		for _, v := range vars {
			b, err := stm.ReadT(tx, v)
			if err != nil {
				return err
			}
			total += b
		}
		if total != accounts*initial {
			t.Errorf("[%s] total = %d, want %d (money not conserved)", label, total, accounts*initial)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("[%s] audit: %v", label, err)
	}
}

// testLongTransactions runs one thread whose every transaction reads all
// accounts and rotates their balances one place round the ring, beside
// short transfers on the same accounts. Each long transaction conflicts
// with nearly every short one; the engine's conflict policy must still let
// all of them commit, and money is conserved.
func testLongTransactions(t *testing.T, factory Factory) {
	const (
		threads   = 4
		accounts  = 8
		transfers = 200
		rotations = 20
		initial   = 1000
	)
	tm := factory(nil, stm.WaitPreemptive)
	vars := make([]*stm.TVar[int], accounts)
	for i := range vars {
		vars[i] = stm.NewT(initial + i)
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := tm.Register(fmt.Sprintf("short%d", i))
		rng := rand.New(rand.NewSource(int64(i) + 7))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < transfers; j++ {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				_ = th.Atomically(func(tx stm.Tx) error {
					fb, err := stm.ReadT(tx, vars[from])
					if err != nil {
						return err
					}
					tb, err := stm.ReadT(tx, vars[to])
					if err != nil {
						return err
					}
					if err := stm.WriteT(tx, vars[from], fb-1); err != nil {
						return err
					}
					return stm.WriteT(tx, vars[to], tb+1)
				})
			}
		}()
	}
	long := tm.Register("long")
	balances := make([]int, accounts)
	for r := 0; r < rotations; r++ {
		err := long.Atomically(func(tx stm.Tx) error {
			for k, v := range vars {
				b, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				balances[k] = b
			}
			for k, v := range vars {
				if err := stm.WriteT(tx, v, balances[(k+1)%accounts]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("rotation %d: %v", r, err)
		}
	}
	wg.Wait()
	if got := long.Ctx().Commits.Load(); got != rotations {
		t.Errorf("long commits = %d, want %d", got, rotations)
	}
	want := 0
	for i := 0; i < accounts; i++ {
		want += initial + i
	}
	total := 0
	for _, v := range vars {
		total += readRO(t, long, v)
	}
	if total != want {
		t.Errorf("total = %d, want %d (money not conserved)", total, want)
	}
}

// testHeldLockRetries: a transaction that meets a Var write-locked by a
// stalled writer aborts and retries for as long as the lock is held — no
// retry budget gives up on it — and commits on top of the writer's value
// once the writer has committed.
func testHeldLockRetries(t *testing.T, factory Factory) {
	const minAborts = 20
	tm := factory(nil, stm.WaitPreemptive)
	holder := tm.Register("holder")
	asker := tm.Register("asker")
	v := stm.NewT(0)

	locked, release := make(chan struct{}), make(chan struct{})
	held := make(chan error, 1)
	go func() {
		first := true
		held <- holder.Atomically(func(tx stm.Tx) error {
			if err := stm.WriteT(tx, v, 1); err != nil {
				return err
			}
			if first {
				first = false
				close(locked)
				<-release
			}
			return nil
		})
	}()
	<-locked
	asked := make(chan error, 1)
	go func() {
		asked <- asker.Atomically(func(tx stm.Tx) error {
			n, err := stm.ReadT(tx, v)
			if err != nil {
				return err
			}
			return stm.WriteT(tx, v, n+10)
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for asker.Ctx().Aborts.Load() < minAborts {
		select {
		case err := <-asked:
			close(release)
			t.Fatalf("asker returned %v after %d aborts while the lock was held", err, asker.Ctx().Aborts.Load())
		default:
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("asker aborted %d times in 10s against the held lock, want %d", asker.Ctx().Aborts.Load(), minAborts)
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := <-asked; err != nil {
		t.Fatalf("asker: %v", err)
	}
	if got := readRO(t, asker, v); got != 11 {
		t.Fatalf("final value = %d, want 11 (the asker's write on top of the holder's)", got)
	}
}

// testInvariantPair maintains x + y == 0 under concurrent updates while
// readers verify the invariant inside transactions: any torn (non-atomic)
// view would be observed.
func testInvariantPair(t *testing.T, factory Factory) {
	const threads, iters = 4, 300
	tm := factory(nil, stm.WaitPreemptive)
	x, y := stm.NewT(0), stm.NewT(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := tm.Register(fmt.Sprintf("w%d", i))
		rng := rand.New(rand.NewSource(int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				d := rng.Intn(100) - 50
				_ = th.Atomically(func(tx stm.Tx) error {
					xv, err := stm.ReadT(tx, x)
					if err != nil {
						return err
					}
					yv, err := stm.ReadT(tx, y)
					if err != nil {
						return err
					}
					if xv+yv != 0 {
						t.Errorf("invariant torn inside writer: x=%d y=%d", xv, yv)
					}
					if err := stm.WriteT(tx, x, xv+d); err != nil {
						return err
					}
					return stm.WriteT(tx, y, yv-d)
				})
			}
		}()
	}
	for i := 0; i < 2; i++ {
		th := tm.Register(fmt.Sprintf("r%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				_ = th.Atomically(func(tx stm.Tx) error {
					xv, err := stm.ReadT(tx, x)
					if err != nil {
						return err
					}
					yv, err := stm.ReadT(tx, y)
					if err != nil {
						return err
					}
					if xv+yv != 0 {
						t.Errorf("invariant torn in reader: x=%d y=%d", xv, yv)
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
}

// testWriteSkew checks serializability beyond snapshot isolation: two
// transactions each read both vars and write one; under the constraint
// x + y <= 1 starting from 0,0 a serializable execution can never make both
// writes (x=1 and y=1) from the same initial snapshot.
func testWriteSkew(t *testing.T, factory Factory) {
	const iters = 200
	tm := factory(nil, stm.WaitPreemptive)
	x, y := stm.NewT(0), stm.NewT(0)
	t1 := tm.Register("t1")
	t2 := tm.Register("t2")
	reset := tm.Register("reset")

	for i := 0; i < iters; i++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		body := func(th stm.Thread, mine, other *stm.TVar[int]) {
			defer wg.Done()
			<-start
			_ = th.Atomically(func(tx stm.Tx) error {
				mv, err := stm.ReadT(tx, mine)
				if err != nil {
					return err
				}
				ov, err := stm.ReadT(tx, other)
				if err != nil {
					return err
				}
				if mv+ov == 0 {
					return stm.WriteT(tx, mine, 1)
				}
				return nil
			})
		}
		wg.Add(2)
		go body(t1, x, y)
		go body(t2, y, x)
		close(start)
		wg.Wait()

		err := reset.Atomically(func(tx stm.Tx) error {
			xv, err := stm.ReadT(tx, x)
			if err != nil {
				return err
			}
			yv, err := stm.ReadT(tx, y)
			if err != nil {
				return err
			}
			if xv+yv > 1 {
				t.Errorf("write skew: x=%d y=%d", xv, yv)
			}
			if err := stm.WriteT(tx, x, 0); err != nil {
				return err
			}
			return stm.WriteT(tx, y, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func testStats(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	th := tm.Register("t0")
	v := stm.NewT(0)
	for i := 0; i < 5; i++ {
		_ = th.Atomically(func(tx stm.Tx) error {
			n, err := stm.ReadT(tx, v)
			if err != nil {
				return err
			}
			return stm.WriteT(tx, v, n+1)
		})
	}
	s := tm.Stats()
	if s.Commits != 5 {
		t.Errorf("commits = %d, want 5", s.Commits)
	}
	if got := len(tm.Threads()); got != 1 {
		t.Errorf("threads = %d, want 1", got)
	}
	if s.CommitRate() != 1 {
		t.Errorf("commit rate = %f, want 1 (no contention)", s.CommitRate())
	}
}
