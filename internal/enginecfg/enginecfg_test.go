package enginecfg

import (
	"flag"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
)

func TestParseWait(t *testing.T) {
	if w, err := ParseWait(""); err != nil || w != 0 {
		t.Fatalf("empty: %v %v", w, err)
	}
	if w, err := ParseWait("preemptive"); err != nil || w != stm.WaitPreemptive {
		t.Fatalf("preemptive: %v %v", w, err)
	}
	if w, err := ParseWait("busy"); err != nil || w != stm.WaitBusy {
		t.Fatalf("busy: %v %v", w, err)
	}
	if _, err := ParseWait("nope"); err == nil {
		t.Fatal("bad wait accepted")
	}
}

func TestWaitLabels(t *testing.T) {
	if got := WaitLabel(0, EngineSwiss); got != "preemptive" {
		t.Fatalf("swiss default label = %q", got)
	}
	if got := WaitLabel(0, EngineTiny); got != "busy" {
		t.Fatalf("tiny default label = %q", got)
	}
	if got := WaitLabel(stm.WaitBusy, EngineSwiss); got != "busy" {
		t.Fatalf("explicit label = %q", got)
	}
}

func TestBuildEveryCombination(t *testing.T) {
	engines := []string{"", EngineSwiss, EngineTiny}
	scheds := []string{"", SchedNone, SchedShrink, SchedATS, SchedPool}
	for _, e := range engines {
		for _, s := range scheds {
			tm, shrink, err := Build(Spec{Engine: e, Scheduler: s})
			if err != nil {
				t.Fatalf("Build(%q,%q): %v", e, s, err)
			}
			if tm == nil {
				t.Fatalf("Build(%q,%q): nil TM", e, s)
			}
			if (s == SchedShrink) != (shrink != nil) {
				t.Fatalf("Build(%q,%q): shrink=%v", e, s, shrink)
			}
			// The built TM must actually run a transaction.
			th := tm.Register("t0")
			v := stm.NewT[int](1)
			err = th.Atomically(func(tx stm.Tx) error {
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				return stm.WriteT(tx, v, n+1)
			})
			if err != nil {
				t.Fatalf("Build(%q,%q): tx failed: %v", e, s, err)
			}
		}
	}
	for _, bad := range []Spec{{Engine: "bogus"}, {Scheduler: "bogus"}, {Scheduler: "adaptive"}} {
		if _, _, err := Build(bad); err == nil {
			t.Fatalf("Build(%+v) accepted", bad)
		}
	}
}

// TestPoolCountsTheSerializedRetry forces exactly one abort on each engine
// and checks that the TM's stats report the one serialized start Pool gives
// its retry: the transaction reads v, a second thread commits a write to v,
// and the first one's own write to v then fails validation.
func TestPoolCountsTheSerializedRetry(t *testing.T) {
	for _, e := range []string{EngineSwiss, EngineTiny} {
		t.Run(e, func(t *testing.T) {
			tm, _, err := Build(Spec{Engine: e, Scheduler: SchedPool})
			if err != nil {
				t.Fatal(err)
			}
			th, other := tm.Register("t0"), tm.Register("t1")
			v := stm.NewT[int](0)
			attempts := 0
			err = th.Atomically(func(tx stm.Tx) error {
				attempts++
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				if attempts == 1 {
					if err := other.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, 10) }); err != nil {
						return err
					}
				}
				return stm.WriteT(tx, v, n+1)
			})
			if err != nil {
				t.Fatal(err)
			}
			st := tm.Stats()
			if attempts != 2 || st.Aborts != 1 || st.Commits != 2 || st.Serializations != 1 {
				t.Fatalf("attempts = %d, stats = %+v; want 2 attempts, 1 abort, 2 commits, 1 serialization", attempts, st)
			}
			if got := th.Ctx().Serializations.Load(); got != 1 {
				t.Fatalf("the retrying thread counted %d serializations, want 1", got)
			}
		})
	}
}

func TestEngineFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ef := AddFlags(fs)
	if err := fs.Parse([]string{"-stm", "tiny", "-wait", "preemptive"}); err != nil {
		t.Fatal(err)
	}
	if ef.Engine() != EngineTiny {
		t.Fatalf("engine = %q", ef.Engine())
	}
	w, err := ef.WaitPolicy()
	if err != nil || w != stm.WaitPreemptive {
		t.Fatalf("wait = %v %v", w, err)
	}
	if ef.WaitLabel() != "preemptive" {
		t.Fatalf("label = %q", ef.WaitLabel())
	}

	fs = flag.NewFlagSet("y", flag.ContinueOnError)
	ef = AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ef.Engine() != EngineSwiss {
		t.Fatalf("default engine = %q", ef.Engine())
	}
	if w, err := ef.WaitPolicy(); err != nil || w != 0 {
		t.Fatalf("default wait = %v %v", w, err)
	}
	if ef.WaitLabel() != "preemptive" {
		t.Fatalf("default label = %q", ef.WaitLabel())
	}
}
