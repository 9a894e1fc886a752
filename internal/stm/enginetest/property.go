package enginetest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/shrink-tm/shrink/internal/stm"
)

// RunProperty executes randomized model-based tests against the factory:
// sequential transactions over a small heap must behave exactly like a map,
// and concurrent random transfers must preserve a global invariant.
func RunProperty(t *testing.T, factory Factory) {
	t.Run("SequentialModelEquivalence", func(t *testing.T) { propSequentialModel(t, factory) })
	t.Run("ConcurrentSumInvariant", func(t *testing.T) { propConcurrentSum(t, factory) })
	t.Run("RandomAbortInjection", func(t *testing.T) { propAbortInjection(t, factory) })
}

// propSequentialModel: single-threaded random reads/writes inside random
// transaction boundaries must match a plain map (with user aborts rolling
// back the transaction's own writes).
func propSequentialModel(t *testing.T, factory Factory) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tm := factory(nil, stm.WaitPreemptive)
		th := tm.Register("t0")
		const nVars = 8
		vars := make([]*stm.TVar[int], nVars)
		model := make([]int, nVars)
		for i := range vars {
			vars[i] = stm.NewT(i * 10)
			model[i] = i * 10
		}
		errInjected := fmt.Errorf("injected")
		for txi := 0; txi < 50; txi++ {
			shadow := make([]int, nVars)
			copy(shadow, model)
			abort := rng.Intn(4) == 0
			nOps := 1 + rng.Intn(6)
			err := th.Atomically(func(tx stm.Tx) error {
				for op := 0; op < nOps; op++ {
					i := rng.Intn(nVars)
					if rng.Intn(2) == 0 {
						got, err := stm.ReadT(tx, vars[i])
						if err != nil {
							return err
						}
						if got != shadow[i] {
							t.Logf("seed %d tx %d: read vars[%d] = %d, model %d",
								seed, txi, i, got, shadow[i])
							return fmt.Errorf("model divergence")
						}
					} else {
						val := rng.Intn(1000)
						if err := stm.WriteT(tx, vars[i], val); err != nil {
							return err
						}
						shadow[i] = val
					}
				}
				if abort {
					return errInjected
				}
				return nil
			})
			switch {
			case abort && err != errInjected:
				t.Logf("seed %d tx %d: expected injected abort, got %v", seed, txi, err)
				return false
			case !abort && err != nil:
				t.Logf("seed %d tx %d: unexpected error %v", seed, txi, err)
				return false
			case !abort:
				copy(model, shadow) // committed: shadow becomes truth
			}
		}
		// Final state must equal the model.
		ok := true
		_ = th.Atomically(func(tx stm.Tx) error {
			for i, v := range vars {
				got, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				if got != model[i] {
					ok = false
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// propConcurrentSum: concurrent random multi-var transfers preserve the sum
// of all vars, for every seed.
func propConcurrentSum(t *testing.T, factory Factory) {
	prop := func(seed int64) bool {
		tm := factory(nil, stm.WaitPreemptive)
		const nVars, threads, ops = 10, 4, 80
		vars := make([]*stm.TVar[int], nVars)
		for i := range vars {
			vars[i] = stm.NewT(100)
		}
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			th := tm.Register(fmt.Sprintf("t%d", w))
			rng := rand.New(rand.NewSource(seed + int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					// Move a random amount around a random cycle of
					// 2-4 vars; the net change is zero.
					k := 2 + rng.Intn(3)
					idx := rng.Perm(nVars)[:k]
					d := rng.Intn(7) - 3
					_ = th.Atomically(func(tx stm.Tx) error {
						vals := make([]int, k)
						for j, i := range idx {
							raw, err := stm.ReadT(tx, vars[i])
							if err != nil {
								return err
							}
							vals[j] = raw
						}
						for j, i := range idx {
							delta := d
							if j == k-1 {
								delta = -d * (k - 1)
							}
							if err := stm.WriteT(tx, vars[i], vals[j]+delta); err != nil {
								return err
							}
						}
						return nil
					})
				}
			}()
		}
		wg.Wait()
		sum := 0
		th := tm.Register("audit")
		_ = th.Atomically(func(tx stm.Tx) error {
			sum = 0
			for _, v := range vars {
				raw, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				sum += raw
			}
			return nil
		})
		if sum != nVars*100 {
			t.Logf("seed %d: sum = %d, want %d", seed, sum, nVars*100)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// propAbortInjection: randomly dooming threads mid-flight must never break
// the invariant — doomed transactions abort and retry.
func propAbortInjection(t *testing.T, factory Factory) {
	tm := factory(nil, stm.WaitPreemptive)
	x := stm.NewT(0)
	y := stm.NewT(0)
	const threads, ops = 3, 120
	var wg sync.WaitGroup
	ctxs := make([]*stm.ThreadCtx, 0, threads)
	var mu sync.Mutex
	for w := 0; w < threads; w++ {
		th := tm.Register(fmt.Sprintf("t%d", w))
		mu.Lock()
		ctxs = append(ctxs, th.Ctx())
		mu.Unlock()
		rng := rand.New(rand.NewSource(int64(w) + 99))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				d := rng.Intn(9) - 4
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
						t.Errorf("invariant broken: %d + %d", xv, yv)
					}
					if err := stm.WriteT(tx, x, xv+d); err != nil {
						return err
					}
					return stm.WriteT(tx, y, yv-d)
				})
			}
		}()
	}
	// The chaos goroutine dooms random threads while they run.
	stop := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if len(ctxs) > 0 {
				ctxs[rng.Intn(len(ctxs))].Doomed.Store(true)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	close(stop)
	chaosWg.Wait()
	th := tm.Register("audit")
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
			t.Errorf("final invariant broken: %d + %d", xv, yv)
		}
		return nil
	})
}
