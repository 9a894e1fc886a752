package microbench_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/harness"
	"github.com/shrink-tm/shrink/internal/microbench"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

func TestDefaults(t *testing.T) {
	w := microbench.NewRBTree(0, 0)
	if w.Range != 16384 || w.UpdatePercent != 20 {
		t.Fatalf("defaults = %d/%d, want paper values 16384/20", w.Range, w.UpdatePercent)
	}
	if w.Name() != "rbtree-20%" {
		t.Fatalf("name = %q", w.Name())
	}
}

func TestSetupFillsHalf(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("setup")
	w := microbench.NewRBTree(512, 20)
	if err := w.Setup(th); err != nil {
		t.Fatal(err)
	}
	err := th.Atomically(func(tx stm.Tx) error {
		size, err := w.Tree().Size(tx)
		if err != nil {
			return err
		}
		// Random fill with duplicates lands below half capacity but
		// must be a substantial fraction.
		if size < 512/4 || size > 512 {
			t.Errorf("size after setup = %d", size)
		}
		_, err = w.Tree().CheckInvariants(tx)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpsPreserveInvariants(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("t0")
	w := microbench.NewRBTree(256, 70)
	if err := w.Setup(th); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		if err := w.Op(th, rng); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	err := th.Atomically(func(tx stm.Tx) error {
		_, err := w.Tree().CheckInvariants(tx)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestThroughHarnessBothUpdateRates(t *testing.T) {
	for _, pct := range []int{20, 70} {
		pct := pct
		res, err := harness.Run(harness.Config{
			Engine:    enginecfg.EngineSwiss,
			Scheduler: enginecfg.SchedShrink,
			Threads:   4,
			Duration:  50 * time.Millisecond,
		}, func() harness.Workload { return microbench.NewRBTree(1024, pct) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Fatalf("%d%%: no commits", pct)
		}
	}
}

func TestSkipListWorkload(t *testing.T) {
	tm := swiss.New(swiss.Options{})
	th := tm.Register("t0")
	w := microbench.NewSkipListSet(512, 70)
	if w.Name() != "skiplist-70%" {
		t.Fatalf("name = %q", w.Name())
	}
	if err := w.Setup(th); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if err := w.Op(th, rng); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := th.Atomically(w.List().CheckInvariants); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListWorkloadDefaults(t *testing.T) {
	w := microbench.NewSkipListSet(0, 0)
	if w.Range != 16384 || w.UpdatePercent != 20 {
		t.Fatalf("defaults = %d/%d", w.Range, w.UpdatePercent)
	}
}
