// Bank: a contended hot-account workload comparing schedulers side by side.
// A few "hot" accounts receive most transfers (a classic overload pattern);
// the example runs the same workload under the base STM, ATS, Pool and
// Shrink, and prints throughput and abort rates — a miniature of the
// paper's Figure 5 in a single program.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/stm"
)

// hotBank is a harness workload: 64 accounts, 80% of transfers touch the
// 4 hot accounts.
type hotBank struct {
	accounts []*stm.TVar[int]
}

func (b *hotBank) Name() string { return "hot-bank" }

func (b *hotBank) Setup(th stm.Thread) error {
	b.accounts = make([]*stm.TVar[int], 64)
	for i := range b.accounts {
		b.accounts[i] = stm.NewT(1000)
	}
	return nil
}

func (b *hotBank) pick(rng *rand.Rand) int {
	if rng.Intn(100) < 80 {
		return rng.Intn(4) // hot set
	}
	return rng.Intn(len(b.accounts))
}

func (b *hotBank) Op(th stm.Thread, rng *rand.Rand) error {
	from, to := b.pick(rng), b.pick(rng)
	if from == to {
		to = (to + 1) % len(b.accounts)
	}
	amount := rng.Intn(10)
	return th.Atomically(func(tx stm.Tx) error {
		f, err := stm.ReadT(tx, b.accounts[from])
		if err != nil {
			return err
		}
		t, err := stm.ReadT(tx, b.accounts[to])
		if err != nil {
			return err
		}
		if err := stm.WriteT(tx, b.accounts[from], f-amount); err != nil {
			return err
		}
		return stm.WriteT(tx, b.accounts[to], t+amount)
	})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bank:", err)
		os.Exit(1)
	}
}

func run() error {
	const threads = 16 // overloaded relative to the emulated 8 cores
	fmt.Printf("hot-account bank, %d threads on 8 emulated cores, 300ms per scheduler\n\n", threads)
	fmt.Printf("%-8s %12s %12s %10s %10s\n", "sched", "tx/s", "commits", "abortRate", "serial")

	var wg sync.WaitGroup // keeps the comparison sequential but shows intent
	wg.Wait()
	for _, scheduler := range []string{
		enginecfg.SchedNone, enginecfg.SchedATS, enginecfg.SchedPool, enginecfg.SchedShrink,
	} {
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineSwiss,
			Scheduler: scheduler,
			Threads:   threads,
			Duration:  300 * time.Millisecond,
			Cores:     8,
			Seed:      7,
		}, func() harness.Workload { return &hotBank{} })
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %12.0f %12d %10.3f %10d\n",
			scheduler, res.Throughput, res.Commits, res.AbortRate, res.Serializations)
	}
	fmt.Println("\nExpected shape: shrink sustains throughput with fewer aborts than")
	fmt.Println("the base STM; ATS/Pool serialize more coarsely and lose parallelism.")
	return nil
}
