package tkv

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
)

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
	st := openTest(t, Config{Shards: 2, Admission: &ac})
	defer st.Close()
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
// knee. minScored logged writes parked at a frozen gate (the store is
// logged: only there does a single-key write enter its shard's gate), and
// nothing committed, score the shard minScored cures per commit; one tick
// puts its EWMA at half that, past a knee of 1, and it starts shedding — it
// alone, the other shard scored nothing — and batches follow the worst
// shard. Once the cures stop the score decays back under the knee and the
// shedding stops.
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
	for r := 0; r < minScored; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := st.Put(key, "w"); err != nil {
				t.Error(err)
			}
		}()
	}
	eventually(t, "the writes wait at the gate", func() bool {
		_, excl := s.gate.waits()
		return excl == minScored
	})
	c.tick()
	s.gate.unfreeze()
	wg.Wait()
	for j, sh := range st.shards {
		want, wantP := 0.0, 0.0
		if j == hot {
			want, wantP = minScored/2, 0.1
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
// commits on its retry, beside one interfering commit and minScored-2
// plain puts, so the window holds enough to be scored: 1 abort per
// minScored commits, and Pool, which serializes the retry, adds one cure
// for 2; one tick puts the EWMA at half of that. Shrink and ATS let the
// retry run free (a success rate of 0.5 is not under Shrink's threshold, a
// contention intensity of 0.25 not over ATS's).
func TestAdmissionScoresSerializations(t *testing.T) {
	for _, row := range []struct {
		scheduler string
		serials   uint64
		overload  float64
	}{
		{enginecfg.SchedShrink, 0, 0.5 / minScored},
		{enginecfg.SchedATS, 0, 0.5 / minScored},
		{enginecfg.SchedPool, 1, 1.0 / minScored},
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
			for i := 0; i < minScored-2; i++ {
				if _, err := st.Put(key, "v"); err != nil {
					t.Fatal(err)
				}
			}
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
// hour-long tick), each single-key write kind and a batch (refused where a
// serving layer refuses it, at ShedLowPriority) are refused on an unlogged
// and on a logged store; the keys keep their values, the log gets no
// record, the refusals are counted, and reads and multi-key reads are still
// served.
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
					if st.ShedLowPriority() {
						return ErrBackpressure
					}
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
