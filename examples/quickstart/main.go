// Quickstart: the smallest end-to-end use of the library — create a
// SwissTM-like STM with the Shrink scheduler, run concurrent transfer
// transactions, and print the commit, abort and serialization statistics.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"

	"github.com/shrink-tm/shrink/internal/cm"
	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Build a TM: SwissTM-like engine + Shrink scheduler (the paper's
	//    parameters) + Greedy contention management.
	tm := swiss.New(swiss.Options{
		Scheduler: sched.NewShrink(sched.DefaultShrinkConfig()),
		CM:        &cm.Greedy{},
		Wait:      stm.WaitPreemptive,
	})

	// 2. Shared state is held in typed transactional vars: reads and
	//    writes move int values without interface boxing.
	const accounts = 8
	balance := make([]*stm.TVar[int], accounts)
	for i := range balance {
		balance[i] = stm.NewT(100)
	}

	// 3. Each goroutine registers a Thread and runs transactions with
	//    Atomically. Conflicting transfers retry automatically; Shrink
	//    watches each thread's success rate and serializes transactions
	//    it predicts will conflict.
	const workers, transfers = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := tm.Register(fmt.Sprintf("worker-%d", w))
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					to = (to + 1) % accounts
				}
				amount := rng.Intn(20)
				_ = th.Atomically(func(tx stm.Tx) error {
					f, err := stm.ReadT(tx, balance[from])
					if err != nil {
						return err
					}
					t, err := stm.ReadT(tx, balance[to])
					if err != nil {
						return err
					}
					if err := stm.WriteT(tx, balance[from], f-amount); err != nil {
						return err
					}
					return stm.WriteT(tx, balance[to], t+amount)
				})
			}
		}()
	}
	wg.Wait()

	// 4. Audit: the total is conserved no matter how contended the run was.
	auditor := tm.Register("auditor")
	var total int
	if err := auditor.Atomically(func(tx stm.Tx) error {
		total = 0
		for _, v := range balance {
			b, err := stm.ReadT(tx, v)
			if err != nil {
				return err
			}
			total += b
		}
		return nil
	}); err != nil {
		return err
	}

	stats := tm.Stats()
	fmt.Printf("total balance: %d (expected %d)\n", total, accounts*100)
	fmt.Printf("commits: %d  aborts: %d  commit rate: %.1f%%\n",
		stats.Commits, stats.Aborts, stats.CommitRate()*100)
	fmt.Printf("shrink serializations: %d\n", stats.Serializations)
	if total != accounts*100 {
		return fmt.Errorf("money not conserved")
	}
	return nil
}
