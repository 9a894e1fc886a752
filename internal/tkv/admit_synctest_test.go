//go:build goexperiment.synctest

package tkv

// The admission controller on its own ticker, in bubbles
// (internal/synctime): the clock moves only when the test lets it, so
// "after k ticks" is exactly k of the controller's ticks. Each test closes
// its store inside its bubble.

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
)

// checkShedProb fails unless every shard sheds at want.
func checkShedProb(t *testing.T, st *Store, ticks int, want float64) {
	t.Helper()
	for i, s := range st.shards {
		if got := s.ctl.shedProb(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("after %d ticks shard %d sheds at %v, want %v", ticks, i, got, want)
		}
	}
}

// TestShedUnderForcedOverload: a knee of 0 is the documented "always past
// the knee" drill mode. The controller's own ticker ramps every shard's
// shed probability by 0.1 a tick, to ShedMax (0.5) at exactly the fifth
// tick and no further. From then on every batch sheds (at twice the
// worst shard's probability, capped at 1), single-key writes fail with
// ErrBackpressure at ShedMax and no more, and reads keep flowing.
func TestShedUnderForcedOverload(t *testing.T) {
	synctime.Run(t, func() {
		ac := DefaultAdmitConfig()
		ac.ShedKnee = 0 // drill mode
		ac.ShedMax = 0.5
		st := openTest(t, Config{Shards: 2, Admission: &ac})
		defer st.Close()
		if _, err := st.Put(1, "v"); err != nil {
			t.Fatal(err)
		}
		checkShedProb(t, st, 0, 0)
		for k := 1; k <= 6; k++ {
			synctime.Advance(ac.Tick)
			checkShedProb(t, st, k, min(0.1*float64(k), ac.ShedMax))
		}

		const batches = 50
		for i := 0; i < batches; i++ {
			if _, err := st.Batch([]Op{{Kind: OpPut, Key: 2, Value: "w"}}); !errors.Is(err, ErrBackpressure) {
				t.Fatalf("batch %d at a batch shed probability of 1: %v", i, err)
			}
		}
		var shed, ok int
		for i := 0; i < 500; i++ {
			_, err := st.Put(uint64(i), "x")
			switch {
			case errors.Is(err, ErrBackpressure):
				shed++
			case err == nil:
				ok++
			default:
				t.Fatal(err)
			}
			// Reads are never shed.
			if _, _, err := st.Get(uint64(i)); err != nil {
				t.Fatalf("read failed under shedding: %v", err)
			}
		}
		if shed == 0 || ok == 0 {
			t.Fatalf("%d of 500 writes shed at a probability of %v", shed, ac.ShedMax)
		}
		if stats := st.Stats(); stats.Shed != uint64(batches+shed) || stats.ShedBatches != batches {
			t.Fatalf("stats report %d sheds, %d of them batches; want %d and %d", stats.Shed, stats.ShedBatches, batches+shed, batches)
		}
	})
}

// TestAdmissionIdleIsInvisible: a store with admission on that is not past
// its overload knee behaves exactly like one without. Serial puts score
// nothing at the ticks that follow them. Then, for three ticks, callers
// race on a few hot counters, miss a CAS on one key and run cross-shard
// batches over many keys, and each tick scores while they run: no write
// is refused, no tick sets a shed probability, no shard crosses the knee,
// and the counters hold every acknowledged increment.
func TestAdmissionIdleIsInvisible(t *testing.T) {
	synctime.Run(t, func() {
		ac := DefaultAdmitConfig()
		st := openTest(t, Config{Shards: 2, Admission: &ac})
		defer st.Close()
		for k := uint64(0); k < 200; k++ {
			if _, err := st.Put(k, strconv.FormatUint(k, 10)); err != nil {
				t.Fatal(err)
			}
		}
		synctime.Advance(3 * ac.Tick)
		for _, sh := range st.Stats().Shards {
			if sh.Overload != 0 {
				t.Fatalf("serial puts scored shard %d at %v", sh.Shard, sh.Overload)
			}
		}

		const (
			callers  = 16
			rounds   = 20      // per caller and tick
			counters = 256     // keys 1000..1255; the first four are the hot ones
			batchLen = 32      // distinct keys
			casKey   = 1 << 20 // every CAS on it misses
		)
		if _, err := st.Put(casKey, "v"); err != nil {
			t.Fatal(err)
		}
		var acked, refused atomic.Int64
		outcome := func(err error, delta int64) bool {
			switch {
			case err == nil:
				acked.Add(delta)
			case errors.Is(err, ErrBackpressure):
				refused.Add(1)
			default:
				t.Error(err)
				return false
			}
			return true
		}
		// scored checks what the controller made of the load at its tick.
		scored := func(tick int) {
			t.Helper()
			for _, sh := range st.Stats().Shards {
				if sh.Overload > ac.ShedKnee {
					t.Errorf("tick %d: shard %d crossed the knee (%v): the load is meant to stay under it", tick, sh.Shard, sh.Overload)
				}
			}
			checkShedProb(t, st, tick, 0)
		}
		for tick := 1; tick <= 3; tick++ {
			var wg sync.WaitGroup
			resume := make(chan struct{})
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ops := make([]Op, batchLen)
					for i := tick * rounds; i < (tick+1)*rounds; i++ {
						if i == tick*rounds+rounds/2 {
							<-resume
						}
						_, err := st.Add(1000+uint64(i+c)%4, 1)
						if !outcome(err, 1) {
							return
						}
						_, err = st.CAS(casKey, "w", "x")
						if !outcome(err, 0) {
							return
						}
						j := uint64(c*131 + i)
						for k := range ops {
							ops[k] = Op{Kind: OpAdd, Key: 1000 + (j*7+uint64(k)*8)%counters, Delta: 1}
						}
						_, err = st.Batch(ops)
						if !outcome(err, batchLen) {
							return
						}
					}
				}(c)
			}
			// Every caller is halfway. The clock moves to the controller's
			// tick, and the callers resume at that instant: the tick
			// scores the first half while the second half runs.
			synctime.Wait()
			time.Sleep(ac.Tick)
			close(resume)
			wg.Wait()
			synctime.Wait()
			scored(tick)
		}
		synctime.Advance(ac.Tick) // the last round's second half
		scored(4)
		var sum int64
		for k := uint64(1000); k < 1000+counters; k++ {
			v, _, err := st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			n, _ := strconv.ParseInt(v, 10, 64)
			sum += n
		}
		if stats := st.Stats(); refused.Load() != 0 || stats.Shed != 0 {
			t.Errorf("store under its knee refused %d writes (shed=%d)", refused.Load(), stats.Shed)
		}
		if sum != acked.Load() {
			t.Errorf("counters sum to %d, %d increments were acknowledged", sum, acked.Load())
		}
	})
}
