package stm_test

import (
	"errors"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

// clockedTM is the engine surface the RO clock tests need: both engines
// expose their global version clock for diagnostics.
type clockedTM interface {
	stm.TM
	Clock() uint64
}

func roEngines() map[string]clockedTM {
	return map[string]clockedTM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	}
}

// TestRONoClockRMW pins the tentpole's "no commit-phase work" guarantee at
// its observable core: a read-only transaction never performs an atomic
// read-modify-write on the global version clock, so any number of RO
// transactions leave it exactly where the last update commit put it.
func TestRONoClockRMW(t *testing.T) {
	for name, tm := range roEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](0)
			if err := th.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, 1) }); err != nil {
				t.Fatal(err)
			}
			before := tm.Clock()
			for i := 0; i < 1000; i++ {
				if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
					_, err := stm.ReadTRO(tx, v)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			if got := tm.Clock(); got != before {
				t.Fatalf("clock moved from %d to %d across read-only transactions", before, got)
			}
			if commits := tm.Stats().Commits; commits != 1001 {
				t.Fatalf("Commits = %d, want 1001 (RO commits must be counted)", commits)
			}
		})
	}
}

// TestROSnapshotMatchesClock checks that each attempt's snapshot is the
// clock value at begin, and that it refreshes across calls.
func TestROSnapshotMatchesClock(t *testing.T) {
	for name, tm := range roEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](0)
			var snap uint64
			read := func() {
				if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
					snap = tx.Snap()
					_, err := stm.ReadTRO(tx, v)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			read()
			if snap != tm.Clock() {
				t.Fatalf("snap = %d, clock = %d", snap, tm.Clock())
			}
			for i := 0; i < 3; i++ {
				if err := th.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, int64(i)) }); err != nil {
					t.Fatal(err)
				}
			}
			read()
			if snap != tm.Clock() {
				t.Fatalf("snap did not refresh: snap = %d, clock = %d", snap, tm.Clock())
			}
		})
	}
}

// TestRONestedROKeepsOuterSnapshot pins the nesting semantics of the shared
// per-thread RO descriptor: an AtomicallyRO opened inside an RO body runs on
// its own (newer) snapshot, and the outer body's remaining reads must keep
// validating against the *outer* snapshot — if the inner call leaked its
// snapshot, the outer body would accept a half-new view without error.
func TestRONestedROKeepsOuterSnapshot(t *testing.T) {
	for name, tm := range roEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("ro")
			wth := tm.Register("w")
			x := stm.NewT[int](0)
			y := stm.NewT[int](0)
			attempts := 0
			var innerSaw int
			err := th.AtomicallyRO(func(tx *stm.ROTx) error {
				attempts++
				xv, err := stm.ReadTRO(tx, x)
				if err != nil {
					return err
				}
				if attempts == 1 {
					// Commit x+1, y-1 after the outer read of x, then run a
					// nested RO transaction that observes the new state (and
					// advances the shared descriptor's snapshot).
					if err := wth.Atomically(func(wtx stm.Tx) error {
						if err := stm.WriteT(wtx, x, 1); err != nil {
							return err
						}
						return stm.WriteT(wtx, y, -1)
					}); err != nil {
						return err
					}
					if err := th.AtomicallyRO(func(in *stm.ROTx) error {
						n, err := stm.ReadTRO(in, x)
						innerSaw = n
						return err
					}); err != nil {
						return err
					}
				}
				yv, err := stm.ReadTRO(tx, y)
				if err != nil {
					return err
				}
				if xv+yv != 0 {
					t.Errorf("outer body observed torn pair x=%d y=%d (inner snapshot leaked)", xv, yv)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if attempts < 2 {
				t.Fatalf("outer body ran %d times, want >= 2 (the read of y must conflict against the outer snapshot)", attempts)
			}
			if innerSaw != 1 {
				t.Fatalf("nested RO read saw %d, want 1 (the committed value)", innerSaw)
			}
		})
	}
}

// TestROTxImplementsTx checks the compatibility shim: existing read-side
// code written against the Tx interface composes with an RO descriptor
// (untyped reads included), and interface-path writes are rejected.
func TestROTxImplementsTx(t *testing.T) {
	for name, tm := range roEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewVar(41)
			if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
				var itx stm.Tx = tx
				got, err := itx.Read(v)
				if err != nil {
					return err
				}
				if got.(int) != 41 {
					t.Errorf("untyped RO read = %v, want 41", got)
				}
				if tx.ThreadID() != th.ID() {
					t.Errorf("ThreadID = %d, want %d", tx.ThreadID(), th.ID())
				}
				if err := itx.Write(v, 1); !errors.Is(err, stm.ErrReadOnlyWrite) {
					t.Errorf("interface write: err = %v, want ErrReadOnlyWrite", err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
