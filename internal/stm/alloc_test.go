package stm_test

import (
	"testing"

	"github.com/shrink-tm/shrink/internal/sched"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

// skipIfRace guards the AllocsPerRun-based gates: under the race detector
// the instrumentation itself allocates, so the counts are meaningless.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("testing.AllocsPerRun is unreliable under the race detector")
	}
}

// allocEngines builds one TM per engine with default (no-op) policies.
func allocEngines() map[string]stm.TM {
	return map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	}
}

var allocSink int64

// TestTypedReadZeroAllocs is the allocation gate of the read path: an
// uncontended transaction that only reads a typed int64 var must not
// allocate on either engine.
func TestTypedReadZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](42)
			body := func(tx stm.Tx) error {
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				allocSink = n
				return nil
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the transaction descriptor's logs
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("typed int64 read tx: %.1f allocs/op, want 0", allocs)
			}
			if allocSink != 42 {
				t.Fatalf("read returned %d", allocSink)
			}
		})
	}
}

// TestTypedReadManyVarsZeroAllocs extends the gate to a transaction reading
// several typed vars (exercising read-set growth reuse across attempts).
func TestTypedReadManyVarsZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			vars := make([]*stm.TVar[int64], 16)
			for i := range vars {
				vars[i] = stm.NewT(int64(i))
			}
			body := func(tx stm.Tx) error {
				var sum int64
				for _, v := range vars {
					n, err := stm.ReadT(tx, v)
					if err != nil {
						return err
					}
					sum += n
				}
				allocSink = sum
				return nil
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("16-var typed read tx: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestTypedWriteSingleAlloc pins the write-path cost: a typed write spills
// the value to exactly one heap cell (the pointer the engine logs), no
// more. A regression to interface boxing would double it.
func TestTypedWriteSingleAlloc(t *testing.T) {
	skipIfRace(t)
	for name, tm := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](0)
			body := func(tx stm.Tx) error {
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				return stm.WriteT(tx, v, n+1)
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs > 1 {
				t.Errorf("typed int64 rmw tx: %.1f allocs/op, want <= 1", allocs)
			}
		})
	}
}

// TestROSingleReadZeroAllocs is the allocation gate for the read-only
// snapshot mode (the PR-4 tentpole): a typed single-var read through
// AtomicallyRO must not allocate on either engine. There is no read log to
// grow and no commit phase at all, so unlike the update-path gate this one
// needs no descriptor warming.
func TestROSingleReadZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("ro")
			v := stm.NewT[int64](42)
			body := func(tx *stm.ROTx) error {
				n, err := stm.ReadTRO(tx, v)
				if err != nil {
					return err
				}
				allocSink = n
				return nil
			}
			run := func() {
				if err := th.AtomicallyRO(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("RO single-var read tx: %.1f allocs/op, want 0", allocs)
			}
			if allocSink != 42 {
				t.Fatalf("read returned %d", allocSink)
			}
		})
	}
}

// TestROScanZeroAllocs extends the RO gate to a multi-read scan (the
// tkv snapshot shape): a 64-var read-only transaction must also allocate
// nothing — there is no per-read log append whose backing array could grow.
func TestROScanZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("ro")
			vars := make([]*stm.TVar[int64], 64)
			for i := range vars {
				vars[i] = stm.NewT(int64(i))
			}
			body := func(tx *stm.ROTx) error {
				var sum int64
				for _, v := range vars {
					n, err := stm.ReadTRO(tx, v)
					if err != nil {
						return err
					}
					sum += n
				}
				allocSink = sum
				return nil
			}
			run := func() {
				if err := th.AtomicallyRO(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("64-var RO scan tx: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// schedEngines builds one TM per engine with a Shrink scheduler attached
// (paper parameters), the configuration whose commit lifecycle used to pay
// a write-set materialization per transaction.
func schedEngines() map[string]stm.TM {
	return map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{Scheduler: sched.NewShrink(sched.DefaultShrinkConfig())}),
		"tiny":  tiny.New(tiny.Options{Scheduler: sched.NewShrink(sched.DefaultShrinkConfig())}),
	}
}

// TestShrinkCommitZeroAllocs is the allocation gate for the zero-copy hook
// pipeline: a committed update transaction must perform zero heap
// allocations even with Shrink attached, on both engines. The body swaps
// two vars' value pointers through ReadPtr/WritePtr (an update transaction
// with two reads and two writes that needs no value spill), so everything
// the test measures is lifecycle cost: begin, write indexing, commit,
// scheduler hooks, predictor rotation.
func TestShrinkCommitZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range schedEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			va := stm.NewT[int64](1)
			vb := stm.NewT[int64](2)
			body := func(tx stm.Tx) error {
				pa, err := tx.ReadPtr(va.Word())
				if err != nil {
					return err
				}
				pb, err := tx.ReadPtr(vb.Word())
				if err != nil {
					return err
				}
				if err := tx.WritePtr(va.Word(), pb); err != nil {
					return err
				}
				return tx.WritePtr(vb.Word(), pa)
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the descriptor's logs and the predictor
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("update tx under shrink: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestShrinkUpdateSingleAlloc pins the Shrink-scheduled typed
// read-modify-write at exactly the one value-spill cell the unscheduled
// path pays: the scheduler, write index and predictor must add nothing.
func TestShrinkUpdateSingleAlloc(t *testing.T) {
	skipIfRace(t)
	for name, tm := range schedEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](0)
			body := func(tx stm.Tx) error {
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				return stm.WriteT(tx, v, n+1)
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs > 1 {
				t.Errorf("typed rmw tx under shrink: %.1f allocs/op, want <= 1", allocs)
			}
		})
	}
}

// TestShrinkLargeWriteSetZeroAllocs extends the gate past the write index's
// linear-scan threshold: a 24-write transaction exercises the open-addressed
// table, which must also be allocation-free once warmed.
func TestShrinkLargeWriteSetZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range schedEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			vars := make([]*stm.TVar[int64], 24)
			for i := range vars {
				vars[i] = stm.NewT(int64(i))
			}
			body := func(tx stm.Tx) error {
				// Rotate the value pointers through the vars: 24
				// reads and 24 writes, no value spill.
				first, err := tx.ReadPtr(vars[0].Word())
				if err != nil {
					return err
				}
				prev := first
				for _, v := range vars[1:] {
					p, err := tx.ReadPtr(v.Word())
					if err != nil {
						return err
					}
					if err := tx.WritePtr(v.Word(), prev); err != nil {
						return err
					}
					prev = p
				}
				return tx.WritePtr(vars[0].Word(), prev)
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("24-write tx under shrink: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestShrinkReadOnlyZeroAllocs pins the documented read-side guarantee with
// the scheduler attached: a committed read-only transaction allocates
// nothing under Shrink either (the predictor's commit-cycle rotation must
// stay allocation-free even when the write set is empty).
func TestShrinkReadOnlyZeroAllocs(t *testing.T) {
	skipIfRace(t)
	for name, tm := range schedEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](42)
			body := func(tx stm.Tx) error {
				n, err := stm.ReadT(tx, v)
				if err != nil {
					return err
				}
				allocSink = n
				return nil
			}
			run := func() {
				if err := th.Atomically(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("read-only tx under shrink: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}
