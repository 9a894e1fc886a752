package tkv

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// attachment is what a store's single-key write path can find attached: no
// log, a replication ring, a WAL, both. The path is one function over all
// four, so what it promises is checked on all four.
type attachment struct {
	name      string
	ring, wal bool
}

var attachments = []attachment{
	{name: "plain"},
	{name: "ring", ring: true},
	{name: "wal", wal: true},
	{name: "ring+wal", ring: true, wal: true},
}

func (a attachment) logged() bool { return a.ring || a.wal }

// open opens a two-shard store with the attachment, its WAL (if any) in
// dir, closed when the test ends.
func (a attachment) open(t *testing.T, dir string) *Store {
	t.Helper()
	cfg := Config{Shards: 2}
	if a.ring {
		cfg.ReplRing = 1024
	}
	if a.wal {
		cfg.WAL = &tkvwal.Options{Dir: dir}
	}
	st := openTest(t, cfg)
	t.Cleanup(st.Close)
	return st
}

// logRecords sums the log heads of a logged store's shards: the number of
// records it has emitted.
func logRecords(st *Store) (n uint64) {
	for sh := range st.logs {
		n += st.logs[sh].last()
	}
	return n
}

// single runs op as its single-key call: ok is created / deleted / swapped,
// n an Add's counter.
func single(st *Store, op Op) (ok bool, n int64, err error) {
	switch op.Kind {
	case OpPut:
		ok, err = st.Put(op.Key, op.Value)
	case OpDelete:
		ok, err = st.Delete(op.Key)
	case OpCAS:
		ok, err = st.CAS(op.Key, op.Old, op.Value)
	case OpAdd:
		n, err = st.Add(op.Key, op.Delta)
	}
	return ok, n, err
}

// oneOpBatch runs op as a one-op Batch and reads its result the way the
// single-key call reports it: a put's Found is the key not created, a cas
// swapped if it found the key and no mismatch, an add's Value is the counter.
func oneOpBatch(st *Store, op Op) (ok bool, n int64, err error) {
	res, err := st.Batch([]Op{op})
	if err != nil {
		return false, 0, err
	}
	r := res[0]
	switch op.Kind {
	case OpPut:
		return !r.Found, 0, nil
	case OpCAS:
		return r.Found && !r.CASMismatch, 0, nil
	case OpAdd:
		n, err = strconv.ParseInt(r.Value, 10, 64)
		return false, n, err
	}
	return r.Found, 0, nil
}

// TestSingleKeyWriteMatrix runs every outcome of the four single-key writes
// on every kind of store, each step both as its single-key call and as a
// one-op Batch, the two callers of exec: the same results and the same final
// contents everywhere; on a logged store exactly one record, of the
// resulting state, per write that changed something and none for a no-op or
// a user error; on a ring dense sequences; on a WAL the same contents after a
// restart. The one difference is a cas miss: the single-key CAS reports it
// as no swap, a batch fails with ErrCASMismatch; neither writes or logs.
func TestSingleKeyWriteMatrix(t *testing.T) {
	steps := []struct {
		name    string
		op      Op
		ok      bool
		n       int64
		casMiss bool
		userErr bool
		rec     *tkvlog.Entry // what a logged store emits; nil: nothing
	}{
		{name: "put new", op: Op{Kind: OpPut, Key: 1, Value: "a"}, ok: true, rec: &tkvlog.Entry{Key: 1, Val: "a"}},
		{name: "put overwrite", op: Op{Kind: OpPut, Key: 1, Value: "b"}, rec: &tkvlog.Entry{Key: 1, Val: "b"}},
		{name: "delete present", op: Op{Kind: OpDelete, Key: 1}, ok: true, rec: &tkvlog.Entry{Key: 1, Del: true}},
		{name: "delete missing", op: Op{Kind: OpDelete, Key: 1}},
		{name: "put (for the CAS)", op: Op{Kind: OpPut, Key: 2, Value: "x"}, ok: true, rec: &tkvlog.Entry{Key: 2, Val: "x"}},
		{name: "CAS hit", op: Op{Kind: OpCAS, Key: 2, Old: "x", Value: "y"}, ok: true, rec: &tkvlog.Entry{Key: 2, Val: "y"}},
		{name: "CAS miss", op: Op{Kind: OpCAS, Key: 2, Old: "x", Value: "z"}, casMiss: true},
		{name: "CAS on a missing key", op: Op{Kind: OpCAS, Key: 3, Value: "z"}, casMiss: true},
		{name: "Add on a missing key", op: Op{Kind: OpAdd, Key: 4, Delta: 5}, n: 5, rec: &tkvlog.Entry{Key: 4, Val: "5"}},
		{name: "Add on a numeric value", op: Op{Kind: OpAdd, Key: 4, Delta: -2}, n: 3, rec: &tkvlog.Entry{Key: 4, Val: "3"}},
		{name: "put (for the Add)", op: Op{Kind: OpPut, Key: 5, Value: "abc"}, ok: true, rec: &tkvlog.Entry{Key: 5, Val: "abc"}},
		{name: "Add on a non-numeric value", op: Op{Kind: OpAdd, Key: 5, Delta: 1}, userErr: true},
		{name: "put (for the overflow)", op: Op{Kind: OpPut, Key: 6, Value: "9223372036854775807"}, ok: true, rec: &tkvlog.Entry{Key: 6, Val: "9223372036854775807"}},
		{name: "Add past int64", op: Op{Kind: OpAdd, Key: 6, Delta: 1}, userErr: true},
	}
	want := map[uint64]string{2: "y", 4: "3", 5: "abc", 6: "9223372036854775807"}
	callers := []struct {
		name   string
		run    func(*Store, Op) (bool, int64, error)
		misses func(*Store) uint64
	}{
		{"single", single, func(st *Store) uint64 { return st.ops.casMisses.Load() }},
		{"batch", oneOpBatch, func(st *Store) uint64 { return st.ops.batchCASMisses.Load() }},
	}

	for _, a := range attachments {
		t.Run(a.name, func(t *testing.T) {
			for _, via := range callers {
				t.Run(via.name, func(t *testing.T) {
					dir := t.TempDir()
					st := a.open(t, dir)
					for _, step := range steps {
						var before uint64
						if a.logged() {
							before = logRecords(st)
						}
						ok, n, err := via.run(st, step.op)
						switch {
						case step.userErr:
							if !errors.Is(err, ErrUser) {
								t.Fatalf("%s: err = %v, want ErrUser", step.name, err)
							}
						case step.casMiss && via.name == "batch":
							if !errors.Is(err, ErrCASMismatch) {
								t.Fatalf("%s: err = %v, want ErrCASMismatch", step.name, err)
							}
						case err != nil || ok != step.ok || n != step.n:
							t.Fatalf("%s = %v %d %v, want %v %d", step.name, ok, n, err, step.ok, step.n)
						}
						if !a.logged() {
							continue
						}
						emitted := logRecords(st) - before
						if step.rec == nil {
							if emitted != 0 {
								t.Fatalf("%s changed nothing and emitted %d records", step.name, emitted)
							}
							continue
						}
						if emitted != 1 {
							t.Fatalf("%s emitted %d records, want 1", step.name, emitted)
						}
						if a.ring {
							sh := st.ShardOf(step.rec.Key)
							recs, ok := st.Repl().ReadFrom(sh, st.Repl().Head(sh), 1, nil)
							if !ok || len(recs) != 1 || !slices.Equal(recs[0].Entries, []tkvlog.Entry{*step.rec}) {
								t.Fatalf("%s: ring head holds %+v, want the one entry %+v", step.name, recs, *step.rec)
							}
						}
					}
					if got := via.misses(st); got != 2 {
						t.Errorf("cas misses = %d, want 2", got)
					}
					got, err := st.Snapshot()
					if err != nil || !maps.Equal(got, want) {
						t.Fatalf("final contents %v (err %v), want %v", got, err, want)
					}
					if a.ring {
						for sh := 0; sh < st.NumShards(); sh++ {
							recs, ok := st.Repl().ReadFrom(sh, 1, 1<<20, nil)
							if !ok || uint64(len(recs)) != st.Repl().Head(sh) {
								t.Fatalf("shard %d: %d records readable (ok %v), head %d", sh, len(recs), ok, st.Repl().Head(sh))
							}
							for i, r := range recs {
								if r.Seq != uint64(i+1) {
									t.Fatalf("shard %d: record %d has seq %d", sh, i, r.Seq)
								}
							}
						}
					}
					if a.wal {
						st.Close()
						got, err := a.open(t, dir).Snapshot()
						if err != nil || !maps.Equal(got, want) {
							t.Fatalf("recovered contents %v (err %v), want %v", got, err, want)
						}
					}
				})
			}
		})
	}
}

// within fails the test unless done delivers inside five seconds.
func within[T any](t *testing.T, what string, done <-chan T) T {
	t.Helper()
	select {
	case v := <-done:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestSingleKeyWriteStripeMode pins what one function over every kind of
// store could get wrong silently. The gate: on a logged store each of the
// four writes enters its shard's gate — it waits at a frozen one — and on an
// unlogged one it takes none — it goes past. And the park: a write waits for
// its durability after its commit has appended its record and it has left
// the gate, so while its handle is pending a second write to the same key
// goes through, and a read sees it.
func TestSingleKeyWriteStripeMode(t *testing.T) {
	const key = 7
	writes := []struct {
		name string
		run  func(*Store) error
	}{
		{"Put", func(st *Store) error { _, err := st.Put(key, "v"); return err }},
		{"Delete", func(st *Store) error { _, err := st.Delete(key); return err }},
		{"CAS", func(st *Store) error { _, err := st.CAS(key, "1", "2"); return err }},
		{"Add", func(st *Store) error { _, err := st.Add(key, 1); return err }},
	}
	for _, a := range attachments {
		t.Run("mode/"+a.name, func(t *testing.T) {
			st := a.open(t, t.TempDir())
			g := &st.shardFor(key).gate
			for _, w := range writes {
				// Every write finds "1" under the key, so each changes
				// something (and, logged, has a record to emit).
				if _, err := st.Put(key, "1"); err != nil {
					t.Fatal(err)
				}
				_, excl := g.waits()
				g.freeze()
				done := make(chan error, 1)
				go func() { done <- w.run(st) }()
				if !a.logged() {
					err := within(t, w.name+" past a frozen gate", done)
					g.unfreeze()
					if err != nil {
						t.Fatalf("%s: %v", w.name, err)
					}
					if _, ex := g.waits(); ex != excl {
						t.Fatalf("%s waited at the gate on an unlogged store", w.name)
					}
					continue
				}
				eventually(t, w.name+" waits at the gate", func() bool {
					_, ex := g.waits()
					return ex == excl+1
				})
				select {
				case err := <-done:
					t.Fatalf("%s returned (err %v) past a frozen gate", w.name, err)
				default:
				}
				g.unfreeze()
				if err := within(t, w.name, done); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
			}
		})
	}
	for _, w := range writes {
		t.Run("park/"+w.name, func(t *testing.T) {
			fs := &tkvwal.SimFS{}
			st := openTest(t, Config{Shards: 2, WAL: &tkvwal.Options{Dir: "wal", FS: fs}})
			t.Cleanup(func() {
				fs.ReleaseAll() // Close flushes, and must find the Sync open
				st.Close()
			})
			sh := st.ShardOf(key)

			if _, err := st.Put(key, "1"); err != nil { // something for w to change
				t.Fatal(err)
			}
			fs.HoldSyncs()
			head := st.logs[sh].last()
			first := make(chan error, 1)
			go func() { first <- w.run(st) }()
			eventually(t, w.name+" emits its record", func() bool { return st.logs[sh].last() == head+1 })

			type async struct {
				c   *tkvwal.Commit
				err error
			}
			second := make(chan async, 1)
			go func() {
				last := "last"
				_, c, err := st.PutRefAsync(key, &last)
				second <- async{c, err}
			}()
			got := within(t, "a second write to the key of a parked "+w.name, second)
			if got.err != nil {
				t.Fatal(got.err)
			}
			select {
			case err := <-first:
				t.Fatalf("%s returned (err %v) with its Sync still held", w.name, err)
			default:
			}
			if v, ok, err := st.Get(key); err != nil || !ok || v != "last" {
				t.Fatalf("Get = %q %v %v, want the second write's value", v, ok, err)
			}

			fs.ReleaseAll()
			if err := within(t, w.name, first); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := got.c.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadOnlyFenceIsBarrier: SetReadOnly(true) returns only once every
// write that passed the flag has finished, and a write that had not yet
// entered its shard's gate is refused. Each write is parked between the flag
// and the gate (the test freezes the gate), the fence is raised behind it and
// must wait; released, the write must come back ErrNotPrimary and the
// store's log and contents must be what SetReadOnly's caller saw when it
// returned — the head a shipper compares its cursors to before it fences the
// stream. An unlogged store's single-key writes take no gate to park them
// at, and have no row: their flag check is the whole fence there (see
// SetReadOnly).
func TestReadOnlyFenceIsBarrier(t *testing.T) {
	const key = 7
	writes := []struct {
		name string
		run  func(*Store) error
	}{
		{"Put", func(st *Store) error { _, err := st.Put(key, "v"); return err }},
		{"Delete", func(st *Store) error { _, err := st.Delete(key); return err }},
		{"CAS", func(st *Store) error { _, err := st.CAS(key, "1", "2"); return err }},
		{"Add", func(st *Store) error { _, err := st.Add(key, 1); return err }},
		{"Batch", func(st *Store) error {
			_, err := st.Batch([]Op{{Kind: OpAdd, Key: key, Delta: 1}})
			return err
		}},
	}
	for _, a := range attachments {
		for _, w := range writes {
			if !a.logged() && w.name != "Batch" {
				continue
			}
			t.Run(a.name+"/"+w.name, func(t *testing.T) {
				st := a.open(t, t.TempDir())
				g := &st.shardFor(key).gate
				if _, err := st.Put(key, "1"); err != nil { // something for w to change
					t.Fatal(err)
				}
				heads := func() (n uint64) {
					if a.logged() {
						n = logRecords(st)
					}
					return n
				}
				before := heads()

				_, excl := g.waits()
				g.freeze()
				wrote := make(chan error, 1)
				go func() { wrote <- w.run(st) }()
				eventually(t, w.name+" waits at the gate", func() bool {
					_, ex := g.waits()
					return ex == excl+1
				})
				fenced := make(chan uint64, 1)
				go func() {
					st.SetReadOnly(true)
					fenced <- heads()
				}()
				select {
				case h := <-fenced:
					t.Errorf("SetReadOnly(true) returned past a %s that had passed the flag", w.name)
					fenced <- h // read again below
				case <-time.After(50 * time.Millisecond):
				}
				g.unfreeze()

				if err := within(t, w.name, wrote); !errors.Is(err, ErrNotPrimary) {
					t.Errorf("%s behind the fence = %v, want ErrNotPrimary", w.name, err)
				}
				atFence := within(t, "SetReadOnly", fenced)
				if now := heads(); atFence != before || now != atFence {
					t.Errorf("log heads %d before, %d when SetReadOnly returned, %d now", before, atFence, now)
				}
				if v, ok, err := st.Get(key); err != nil || !ok || v != "1" {
					t.Errorf("Get = %q %v %v, want the value from before the fence", v, ok, err)
				}
			})
		}
	}
}

// TestUnloggedOpsTakeNoStripe pins what a log adds to the single-key paths
// and MGet: reads take nothing, on any store, and writes wait at a frozen
// gate only on a logged store. With the key's shard's gate frozen, each op
// returns on an unlogged store without a gate wait; on a logged store
// (ReplRing 8) Get and MGet return likewise, and each write waits, its
// shard's exclusive wait count rising, until the gate is unfrozen.
func TestUnloggedOpsTakeNoStripe(t *testing.T) {
	const key = 7
	ops := []struct {
		name  string
		write bool
		run   func(*Store) error
	}{
		{"Get", false, func(st *Store) error { _, _, err := st.Get(key); return err }},
		{"MGet", false, func(st *Store) error { _, err := st.MGet([]uint64{key}); return err }},
		{"Put", true, func(st *Store) error { _, err := st.Put(key, "v"); return err }},
		{"Delete", true, func(st *Store) error { _, err := st.Delete(key); return err }},
		{"CAS", true, func(st *Store) error { _, err := st.CAS(key, "1", "2"); return err }},
		{"Add", true, func(st *Store) error { _, err := st.Add(key, 1); return err }},
	}
	for _, ring := range []int{0, 8} {
		for _, op := range ops {
			name := "unlogged/" + op.name
			if ring > 0 {
				name = "logged/" + op.name
			}
			t.Run(name, func(t *testing.T) {
				st := openTest(t, Config{Shards: 2, ReplRing: ring})
				if _, err := st.Put(key, "1"); err != nil {
					t.Fatal(err)
				}
				g := &st.shardFor(key).gate
				g.freeze()
				release := sync.OnceFunc(g.unfreeze)
				defer release()
				shared, excl := g.waits()
				done := make(chan error, 1)
				go func() { done <- op.run(st) }()
				if ring == 0 || !op.write {
					if err := within(t, op.name+" with its shard's gate frozen", done); err != nil {
						t.Fatal(err)
					}
					if sh, ex := g.waits(); sh != shared || ex != excl {
						t.Fatalf("%s waited at the gate", op.name)
					}
					return
				}
				eventually(t, op.name+" waits at the gate", func() bool {
					_, ex := g.waits()
					return ex == excl+1
				})
				select {
				case err := <-done:
					t.Fatalf("%s returned (err %v) past a frozen gate", op.name, err)
				default:
				}
				release()
				if err := within(t, op.name, done); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSingleKeyWriteAllocs holds the store's own single-key write path to
// exact allocation counts, unlogged and with a ring: what a write allocates
// is what it hands away — the value cell of a CAS or an Add, and with a log
// the record's entry slice. An Add's cell holds its digits too (NewCell),
// so a counter costs the same below 100 and far past it.
func TestSingleKeyWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, tc := range []struct {
		name                       string
		ring                       int
		putRef, add, casSwap, noop float64
	}{
		{name: "plain", ring: 0, putRef: 0, add: 1, casSwap: 1, noop: 0},
		{name: "ring", ring: 1024, putRef: 1, add: 2, casSwap: 2, noop: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openTest(t, Config{Shards: 1, ReplRing: tc.ring})
			cell := new(string)
			*cell = "v"
			if _, err := st.PutRef(1, cell); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(3, "a"); err != nil {
				t.Fatal(err)
			}
			measure := func(what string, want float64, f func()) {
				t.Helper()
				if got := testing.AllocsPerRun(200, f); got != want {
					t.Errorf("%s: %v allocs/op, want exactly %v", what, got, want)
				}
			}
			measure("PutRef", tc.putRef, func() { st.PutRef(1, cell) })
			delta := int64(-1)
			measure("Add (small counter)", tc.add, func() {
				delta = -delta
				st.Add(2, delta)
			})
			if _, err := st.Add(4, -1_000_000_007); err != nil {
				t.Fatal(err)
			}
			measure("Add (large counter)", tc.add, func() {
				delta = -delta
				st.Add(4, delta)
			})
			cur, next := "a", "b"
			measure("swapping CAS", tc.casSwap, func() {
				st.CAS(3, cur, next)
				cur, next = next, cur
			})
			measure("missed CAS", tc.noop, func() { st.CAS(3, "neither", "x") })
			measure("CAS on a missing key", tc.noop, func() { st.CAS(99, "", "x") })
			measure("Delete of a missing key", tc.noop, func() { st.Delete(99) })
		})
	}
}
