package stm_test

import (
	"reflect"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
	"github.com/shrink-tm/shrink/internal/stm/tiny"
)

func roEngines() map[string]stm.TM {
	return map[string]stm.TM{
		"swiss": swiss.New(swiss.Options{}),
		"tiny":  tiny.New(tiny.Options{}),
	}
}

// versionOf returns the version a committed var carries: the global clock's
// value at the commit that last wrote it.
func versionOf[T any](v *stm.TVar[T]) uint64 { return stm.VersionOf(v.Word().Meta()) }

// TestRONoClockRMW pins the "no commit-phase work" guarantee of a read-only
// transaction at its observable core: it never performs an atomic
// read-modify-write on the global version clock, so after any number of RO
// transactions the next update commit ticks the clock exactly once past
// where the last one put it.
func TestRONoClockRMW(t *testing.T) {
	for name, tm := range roEngines() {
		t.Run(name, func(t *testing.T) {
			th := tm.Register("t0")
			v := stm.NewT[int64](0)
			write := func(x int64) {
				if err := th.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, x) }); err != nil {
					t.Fatal(err)
				}
			}
			write(1)
			before := versionOf(v)
			for i := 0; i < 1000; i++ {
				if err := th.AtomicallyRO(func(tx *stm.ROTx) error {
					_, err := stm.ReadTRO(tx, v)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			write(2)
			if got := versionOf(v); got != before+1 {
				t.Fatalf("the update after 1000 read-only transactions committed at %d, want %d: the clock moved across them", got, before+1)
			}
			if commits := tm.Stats().Commits; commits != 1002 {
				t.Fatalf("Commits = %d, want 1002 (RO commits must be counted)", commits)
			}
		})
	}
}

// TestROSnapshotMatchesClock checks that each attempt's snapshot is the
// clock value at begin (the version of the last update commit), and that it
// refreshes across calls.
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
			if err := th.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, 1) }); err != nil {
				t.Fatal(err)
			}
			read()
			if snap != versionOf(v) {
				t.Fatalf("snap = %d, clock = %d", snap, versionOf(v))
			}
			for i := 0; i < 3; i++ {
				if err := th.Atomically(func(tx stm.Tx) error { return stm.WriteT(tx, v, int64(i)) }); err != nil {
					t.Fatal(err)
				}
			}
			read()
			if snap != versionOf(v) {
				t.Fatalf("snap did not refresh: snap = %d, clock = %d", snap, versionOf(v))
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

// TestROTxIsNotATx: a read-only transaction is read-only by type. Its
// descriptor has no WritePtr and no ReadPtr, so it cannot be passed where an
// update body's Tx is expected, and a write inside AtomicallyRO (WriteT,
// WriteRefT) does not compile.
func TestROTxIsNotATx(t *testing.T) {
	ro := reflect.TypeOf((*stm.ROTx)(nil))
	if tx := reflect.TypeOf((*stm.Tx)(nil)).Elem(); ro.Implements(tx) {
		t.Fatalf("%v implements %v", ro, tx)
	}
	for _, name := range []string{"ReadPtr", "WritePtr"} {
		if _, ok := ro.MethodByName(name); ok {
			t.Errorf("%v has method %s", ro, name)
		}
	}
}
