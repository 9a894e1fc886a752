package microbench_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/microbench"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

func TestSkipListSetupFillsHalf(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("setup")
	w := microbench.NewSkipListSet(512, 20)
	if err := w.Setup(th); err != nil {
		t.Fatal(err)
	}
	err := th.Atomically(func(tx stm.Tx) error {
		size, err := w.List().Size(tx)
		if err != nil {
			return err
		}
		// Random fill with duplicates lands below half capacity but
		// must be a substantial fraction.
		if size < 512/4 || size > 512 {
			t.Errorf("size after setup = %d", size)
		}
		return w.List().CheckInvariants(tx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSkipListOpsPreserveInvariants(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("t0")
	w := microbench.NewSkipListSet(256, 70)
	if err := w.Setup(th); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		if err := w.Op(th, rng); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := th.Atomically(w.List().CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListConcurrentOps hammers the workload from several threads on
// both engines; the list's invariants must survive.
func TestSkipListConcurrentOps(t *testing.T) {
	engines := map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{Wait: stm.WaitPreemptive}),
	}
	for name, tm := range engines {
		tm := tm
		t.Run(name, func(t *testing.T) {
			w := microbench.NewSkipListSet(256, 70)
			if err := w.Setup(tm.Register("setup")); err != nil {
				t.Fatal(err)
			}
			const threads, ops = 4, 120
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := tm.Register(fmt.Sprintf("t%d", i))
				rng := rand.New(rand.NewSource(int64(i) * 131))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < ops; j++ {
						_ = w.Op(th, rng)
					}
				}()
			}
			wg.Wait()
			th := tm.Register("check")
			if err := th.Atomically(w.List().CheckInvariants); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSkipListThroughHarnessBothUpdateRates(t *testing.T) {
	for _, pct := range []int{20, 70} {
		pct := pct
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineSwiss,
			Scheduler: enginecfg.SchedShrink,
			Threads:   4,
			Duration:  50 * time.Millisecond,
		}, func() harness.Workload { return microbench.NewSkipListSet(1024, pct) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Fatalf("%d%%: no commits", pct)
		}
	}
}
