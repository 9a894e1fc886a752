package tkv

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
)

// admitted store: small tick so controller reactions land within test time.
func openAdmitTest(t *testing.T, ac AdmitConfig) *Store {
	t.Helper()
	if ac.Tick == 0 {
		ac.Tick = 5 * time.Millisecond
	}
	st := openTest(t, Config{Shards: 2, Admission: &ac})
	t.Cleanup(st.Close)
	return st
}

// TestAdmissionIdleIsInvisible: a store with admission on that is not past
// its overload knee behaves exactly like one without. Serial puts first; then
// callers racing on a few hot counters, missing a CAS on one key and running
// cross-shard batches over many keys, for a few controller ticks: no
// write is refused, nothing is shed, and the counters hold every
// acknowledged increment.
func TestAdmissionIdleIsInvisible(t *testing.T) {
	ac := DefaultAdmitConfig()
	st := openAdmitTest(t, ac)
	for k := uint64(0); k < 200; k++ {
		if _, err := st.Put(k, strconv.FormatUint(k, 10)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(3 * ac.Tick) // a few controller ticks
	for k := uint64(0); k < 200; k++ {
		if _, err := st.Put(k, "x"); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range st.Stats().Shards {
		if sh.Overload > 0.5 {
			t.Fatalf("healthy shard %d scored overloaded: %v", sh.Shard, sh.Overload)
		}
	}

	const (
		callers  = 16
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
	deadline := time.Now().Add(3 * ac.Tick) // the controller scores the load
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := make([]Op, batchLen)
			for i := 0; i < 20 || time.Now().Before(deadline); i++ {
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
	wg.Wait()
	var sum int64
	for k := uint64(1000); k < 1000+counters; k++ {
		v, _, err := st.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		sum += n
	}
	stats := st.Stats()
	if refused.Load() != 0 || stats.Shed != 0 {
		t.Errorf("store under its knee refused %d writes (shed=%d)", refused.Load(), stats.Shed)
	}
	if sum != acked.Load() {
		t.Errorf("counters sum to %d, %d increments were acknowledged", sum, acked.Load())
	}
	for _, sh := range stats.Shards {
		t.Logf("shard %d: overload %.3f", sh.Shard, sh.Overload)
		if sh.Overload > ac.ShedKnee {
			t.Errorf("shard %d crossed the knee (%v): the load is meant to stay under it", sh.Shard, sh.Overload)
		}
	}
}

// TestShedUnderForcedOverload: a knee of 0 is the documented "always past
// the knee" drill mode — the controller must ramp the shed probability and
// writes must start failing with ErrBackpressure while reads keep flowing.
func TestShedUnderForcedOverload(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.ShedKnee = 0 // drill mode
	ac.ShedMax = 0.9
	ac.Tick = 5 * time.Millisecond
	st := openAdmitTest(t, ac)
	if _, err := st.Put(1, "v"); err != nil {
		t.Fatal(err)
	}
	// One tick puts every shard at 0.1 and each later one adds 0.1; on a
	// loaded machine the controller goroutine may not run for a long while,
	// so wait for the tick itself, not for the time it should have taken.
	eventually(t, "every shard sheds", func() bool {
		for _, s := range st.shards {
			if s.ctl.shedProb() == 0 {
				return false
			}
		}
		return true
	})

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
	if shed == 0 {
		t.Fatal("forced overload shed nothing")
	}
	if ok == 0 {
		t.Fatal("shedding starved all writes (ShedMax must keep some flowing)")
	}
	if got := st.Stats().Shed; got == 0 {
		t.Fatal("shed counter not reported in stats")
	}
}

// TestAdmitConfigNormalized: Open fills a zero tick and a ShedMax outside
// (0, 1] with the defaults, and keeps the knee as given: a knee <= 0 is
// drill mode, not "unset".
func TestAdmitConfigNormalized(t *testing.T) {
	d := DefaultAdmitConfig()
	for _, c := range []struct{ in, want AdmitConfig }{
		{AdmitConfig{}, AdmitConfig{Tick: d.Tick, ShedMax: d.ShedMax}},
		{AdmitConfig{ShedKnee: -1, ShedMax: 1.5}, AdmitConfig{Tick: d.Tick, ShedKnee: -1, ShedMax: d.ShedMax}},
		{AdmitConfig{Tick: -time.Second, ShedKnee: 0.02, ShedMax: -0.2}, AdmitConfig{Tick: d.Tick, ShedKnee: 0.02, ShedMax: d.ShedMax}},
		{AdmitConfig{Tick: time.Second, ShedKnee: 2, ShedMax: 1}, AdmitConfig{Tick: time.Second, ShedKnee: 2, ShedMax: 1}},
	} {
		if got := c.in.normalized(); got != c.want {
			t.Errorf("%+v normalized to %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestShedRampsAndDecays: the controller's AIMD shape, one tick at a time.
// Past the knee (here drill mode) every shard's shed probability climbs by
// 0.1 a tick and stops at ShedMax, and batches shed at twice the worst
// shard's probability; below it the probability halves each tick and drops
// to 0 under 0.01, and batches stop shedding with it.
func TestShedRampsAndDecays(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.Tick = time.Hour // the test drives the ticks
	ac.ShedKnee = 0
	ac.ShedMax = 0.5
	st := openAdmitTest(t, ac)
	c := st.ctrl
	check := func(want float64) {
		t.Helper()
		for i := range c.shards {
			if got := c.shards[i].shedProb(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("shard %d shed probability %v, want %v", i, got, want)
			}
		}
	}
	for _, want := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.5} {
		c.tick()
		check(want)
	}
	for i := 0; i < 50; i++ { // 2 × 0.5: every batch sheds
		if !st.ShedLowPriority() {
			t.Fatal("batch admitted at a batch shed probability of 1")
		}
	}
	c.cfg.ShedKnee = math.Inf(1) // nothing is past the knee any more
	for want := 0.25; want >= 0.01; want /= 2 {
		c.tick()
		check(want)
	}
	c.tick()
	check(0)
	if st.ShedLowPriority() {
		t.Fatal("batch shed once every shard's probability decayed to 0")
	}
	if got := st.Stats().ShedBatches; got != 50 {
		t.Fatalf("ShedBatches = %d, want 50", got)
	}
}

// TestShedPastTheKnee: cures, not drill mode, push a shard past a real
// knee. Eight logged writes parked at a frozen gate (the store is logged:
// only there does a single-key write enter its shard's gate), and nothing
// committed, score the shard 8 cures per commit; one tick puts its EWMA at
// 4, past a knee of 1, and it starts shedding — it alone, the other shard
// scored nothing — and batches follow the worst shard. Once the cures stop
// the score decays back under the knee and the shedding stops.
func TestShedPastTheKnee(t *testing.T) {
	ac := DefaultAdmitConfig()
	ac.Tick = time.Hour // the test drives the ticks
	ac.ShedKnee = 1
	st := openTest(t, Config{Shards: 2, ReplRing: 8, Admission: &ac})
	t.Cleanup(st.Close)
	c := st.ctrl
	const key = 7
	if _, err := st.Put(key, "v"); err != nil {
		t.Fatal(err)
	}
	c.tick() // the put's commit is history
	hot := st.ShardOf(key)
	s := st.shards[hot]
	s.gate.freeze()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Put(key, "w"); err != nil {
				t.Error(err)
			}
		}()
	}
	eventually(t, "eight writes wait at the gate", func() bool {
		_, excl := s.gate.waits()
		return excl == 8
	})
	c.tick()
	s.gate.unfreeze()
	wg.Wait()
	for j, sh := range st.shards {
		want, wantP := 0.0, 0.0
		if j == hot {
			want, wantP = 4, 0.1
		}
		if got := sh.ctl.overload(); got != want {
			t.Errorf("shard %d overload %v, want %v", j, got, want)
		}
		if got := sh.ctl.shedProb(); math.Abs(got-wantP) > 1e-9 {
			t.Errorf("shard %d shed probability %v, want %v", j, got, wantP)
		}
	}
	if got := math.Float64frombits(c.maxShedBits.Load()); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("batch shed follows %v, want the worst shard's 0.1", got)
	}
	for n := 0; s.ctl.shedProb() > 0; n++ {
		if n == 20 {
			t.Fatalf("still shedding at %v twenty idle ticks later (overload %v)", s.ctl.shedProb(), s.ctl.overload())
		}
		c.tick()
	}
	if s.ctl.overload() > ac.ShedKnee {
		t.Fatalf("stopped shedding at overload %v, past the knee", s.ctl.overload())
	}
}

// TestAdmissionScoresSerializations: a serialized start is a cure the
// overload score counts, whichever scheduler made it, and Stats reports it
// on its shard. One update transaction on the hot shard aborts once and
// commits on its retry, beside one interfering commit: 1 abort per 2
// commits scores 0.5, and Pool, which serializes the retry, adds one cure
// for 1.0; one tick puts the EWMA at half of that. Shrink and ATS let the
// retry run free (a success rate of 0.5 is not under Shrink's threshold, a
// contention intensity of 0.25 not over ATS's).
func TestAdmissionScoresSerializations(t *testing.T) {
	for _, row := range []struct {
		scheduler string
		serials   uint64
		overload  float64
	}{
		{enginecfg.SchedShrink, 0, 0.25},
		{enginecfg.SchedATS, 0, 0.25},
		{enginecfg.SchedPool, 1, 0.5},
	} {
		t.Run(row.scheduler, func(t *testing.T) {
			ac := DefaultAdmitConfig()
			ac.Tick = time.Hour // the test drives the ticks
			st := openTest(t, Config{Shards: 2, Scheduler: row.scheduler, Admission: &ac})
			defer st.Close()
			const key = 7
			if _, err := st.Put(key, "v"); err != nil {
				t.Fatal(err)
			}
			st.ctrl.tick() // the put's commit is history
			hot := st.ShardOf(key)
			forceUpdateAbort(t, st, key)
			st.ctrl.tick()
			stats := st.Stats()
			for i, ss := range stats.Shards {
				want, wantScore := uint64(0), 0.0
				if i == hot {
					want, wantScore = row.serials, row.overload
				}
				if ss.Serializations != want || ss.Overload != wantScore {
					t.Errorf("shard %d: serializations %d, overload %v; want %d, %v",
						i, ss.Serializations, ss.Overload, want, wantScore)
				}
			}
			if stats.Serializations != row.serials {
				t.Errorf("store serializations %d, want %d", stats.Serializations, row.serials)
			}
		})
	}
}

// TestShedWritesNothing: ErrBackpressure means nothing was written. With
// every shard's shed probability pinned at 1 (the controller parked on an
// hour-long tick), each single-key write kind and a batch are refused on an
// unlogged and on a logged store; the keys keep their values, the log gets
// no record, the refusals are counted, and reads and multi-key reads are
// still served.
func TestShedWritesNothing(t *testing.T) {
	for _, ring := range []int{0, 64} {
		name := "unlogged"
		if ring > 0 {
			name = "logged"
		}
		t.Run(name, func(t *testing.T) {
			ac := DefaultAdmitConfig()
			ac.Tick = time.Hour
			st := openTest(t, Config{Shards: 2, ReplRing: ring, Admission: &ac})
			defer st.Close()
			const key, other = 7, 8
			if _, err := st.Put(key, "5"); err != nil {
				t.Fatal(err)
			}
			head := func() (n uint64) {
				for i := range st.logs {
					n += st.logs[i].last()
				}
				return n
			}
			before := head()
			for i := range st.ctrl.shards {
				st.ctrl.shards[i].shedBits.Store(math.Float64bits(1))
			}
			st.ctrl.maxShedBits.Store(math.Float64bits(1))
			writes := map[string]func() error{
				"Put":    func() error { _, err := st.Put(key, "x"); return err },
				"Delete": func() error { _, err := st.Delete(key); return err },
				"CAS":    func() error { _, err := st.CAS(key, "5", "6"); return err },
				"Add":    func() error { _, err := st.Add(key, 1); return err },
				"Batch": func() error {
					_, err := st.Batch([]Op{{Kind: OpAdd, Key: key, Delta: 1}, {Kind: OpPut, Key: other, Value: "y"}})
					return err
				},
			}
			for name, write := range writes {
				if err := write(); !errors.Is(err, ErrBackpressure) {
					t.Errorf("%s: err = %v, want ErrBackpressure", name, err)
				}
			}
			if v, ok, err := st.Get(key); err != nil || !ok || v != "5" {
				t.Errorf("Get(%d) after shed writes = %q %v %v, want 5", key, v, ok, err)
			}
			if vals, err := st.MGet([]uint64{key, other}); err != nil || vals[0].Value != "5" || vals[1].Found {
				t.Errorf("MGet after shed writes = %+v %v", vals, err)
			}
			if got := head(); got != before {
				t.Errorf("log head moved %d → %d on shed writes", before, got)
			}
			if stats := st.Stats(); stats.Shed != 5 || stats.ShedBatches != 1 {
				t.Errorf("Shed = %d, ShedBatches = %d, want 5 and 1", stats.Shed, stats.ShedBatches)
			}
		})
	}
}

func BenchmarkAdmissionIdle(b *testing.B) {
	// The cost the admission layer adds to a healthy write path.
	ac := DefaultAdmitConfig()
	st, err := Open(Config{Shards: 4, Buckets: 256, Admission: &ac})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := "value"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.PutRef(uint64(i)&1023, &val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdmissionShed(b *testing.B) {
	// The cost of a rejection: overload's hot path.
	c := &shardCtl{}
	c.shedBits.Store(math.Float64bits(1.0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.admitWrite(); err == nil {
			b.Fatal("shed at probability 1 admitted a write")
		}
	}
}
