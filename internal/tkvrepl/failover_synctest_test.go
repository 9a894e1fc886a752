//go:build goexperiment.synctest

package tkvrepl

// The failover drill, one bubble (internal/synctime) per seed: a run is one
// function of its seed, so a failing seed replays.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

const (
	drillSeeds    = 64
	drillTimeout  = 3 * time.Second // both ends of the handover, as tkvd's
	keysPerWriter = 4
)

// TestFailoverGracefulZeroLoss is the kill-and-recover drill over
// drillSeeds seeds (failoverDrill). Across them at least one follower must
// be resynced from a cut, at least one must redial a restarted primary
// mid-load, and at least one power cut must leave a torn tail that
// recovery cuts.
func TestFailoverGracefulZeroLoss(t *testing.T) {
	var resynced, redialed, torn, ran int
	count := func(n *int, saw bool) {
		if saw {
			*n++
		}
	}
	for seed := uint64(1); seed <= drillSeeds; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		if !t.Run(name, func(t *testing.T) {
			r := failoverDrill(t, seed)
			ran++
			count(&resynced, r.resynced)
			count(&redialed, r.redialed)
			count(&torn, r.torn)
		}) {
			t.Errorf("%s failed; replay it with: GOEXPERIMENT=synctest go test -run '^TestFailoverGracefulZeroLoss$/^%s$' ./internal/tkvrepl/", name, name)
		}
	}
	if ran < drillSeeds || t.Failed() {
		return // -run chose some seeds, or a seed failed: the counts are of all of them
	}
	t.Logf("%d seeds: %d resynced from a cut, %d redialed mid-load, %d cut a torn tail", ran, resynced, redialed, torn)
	if resynced == 0 || redialed == 0 || torn == 0 {
		t.Fatalf("of %d seeds, %d resynced from a cut, %d redialed mid-load and %d cut a torn tail: each must be at least 1",
			ran, resynced, redialed, torn)
	}
}

// drillRun is what one seed's run went through.
type drillRun struct{ resynced, redialed, torn bool }

// failoverDrill runs one seed. A primary and a follower each have a ring
// and a sync WAL on their own SimFS whose Sync costs fake time, and each is
// served over its own pipe listener. Writers are wire clients that add 1 to
// keys of their own, and redial at the current target after ErrNotPrimary
// or a transport error. The seed picks the number of writers, the ring
// (on some seeds small enough that the follower is resynced from a cut),
// the Sync cost, the moment of the quit, whether the promotion waits for
// the quit or runs beside it, and whether the primary's wire server is
// dropped and restarted mid-load. Then:
//
//  1. The primary quits in tkvd's order: SetReadOnly(true), DrainRepl, Close.
//  2. Promote must report fenced=true and a gap of 0 on every shard: run
//     beside the quit, it reads the stream to the fence that the quit's
//     drain sends.
//  3. The promoted follower must hold exactly what the primary committed:
//     each key's acked increments, and of the increments whose ack a drop
//     or the quit ate, exactly those that landed on the primary.
//  4. The writers go on against the promoted follower; while they run,
//     with a group written and its Sync not done, both logs are abandoned,
//     both disks lose power (torn as the seed picks) and both stores are
//     reopened.
//  5. Each disk must hold every increment it acked; the follower's also
//     every increment the primary acked, which the promotion handed over.
func failoverDrill(t *testing.T, seed uint64) (r drillRun) {
	rng := rand.New(rand.NewPCG(seed, 0xfa11))
	writers := 1 + rng.IntN(8)
	ring := 1 << 12
	if rng.IntN(4) == 0 {
		ring = 4 // per shard: a few dozen preloaded writes wrap it
	}
	syncCost := time.Duration(1+rng.IntN(8)) * 100 * time.Microsecond
	preload := rng.IntN(64)
	quitAt := 32 + rng.IntN(256)
	dropAt := 0 // no drop
	if rng.IntN(2) == 0 {
		dropAt = 1 + rng.IntN(quitAt-1)
	}
	promoteDuringQuit := rng.IntN(2) == 0
	crashAt := 1 + rng.IntN(128)
	ptear, ftear := rng.Uint64(), rng.Uint64()
	t.Logf("seed %d: %d writers, ring %d, Sync %v, %d preloaded, drop at %d acks (0: none), quit at %d, promote during the quit %v, crash %d acks later",
		seed, writers, ring, syncCost, preload, dropAt, quitAt, promoteDuringQuit, crashAt)

	synctime.Run(t, func() {
		pfs, ffs := &tkvwal.SimFS{}, &tkvwal.SimFS{}
		pfs.SetSyncCost(syncCost)
		ffs.SetSyncCost(syncCost)
		config := func(fs *tkvwal.SimFS) tkv.Config {
			cfg := storeConfig(ring)
			cfg.WAL = &tkvwal.Options{Dir: "wal", FS: fs}
			return cfg
		}
		primary, follower := openStore(t, config(pfs)), openStore(t, config(ffs))
		follower.SetReadOnly(true)
		led := newLedger(writers * keysPerWriter)
		for i := range preload {
			k := uint64(i % len(led.keys))
			v, err := primary.Add(k, 1)
			if err != nil {
				t.Fatal(err)
			}
			led.acked(t, k, v, true)
		}

		var dn drillNet
		psrv := dn.servePrimary(primary)
		fln, _, fstop := serve(follower)
		dn.route(psrv.ln, true)
		f := startFollower(t, follower, dn.dialPrimary)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				write(t, &dn, led, w, writers, stop)
			}()
		}

		if dropAt > 0 {
			<-led.after(dropAt)
			old := psrv
			psrv = dn.servePrimary(primary)
			dn.route(psrv.ln, true)
			old.stop()
		}
		<-led.after(quitAt - dropAt)
		<-psrv.streaming // the follower subscribed to the primary now serving
		r.redialed = dropAt > 0

		// 1. The quit, in tkvd's order, on the primary's own goroutine, as
		// its process would run it; 2. the promotion, once the quit is done
		// or, on some seeds, while it runs, as an operator may call it.
		dn.route(nil, false)
		quit := make(chan bool)
		go func() {
			primary.SetReadOnly(true)
			drained := psrv.srv.DrainRepl(drillTimeout)
			psrv.stop()
			quit <- drained
		}()
		var drained bool
		if !promoteDuringQuit {
			drained = <-quit
		}
		fenced, gap := f.Promote(drillTimeout)
		if promoteDuringQuit {
			drained = <-quit
		}
		if !drained {
			t.Fatal("DrainRepl timed out with a follower attached")
		}
		for _, g := range gap {
			if g != 0 || !fenced {
				t.Fatalf("promoted with fenced=%v gap=%v, want fenced=true and no gap", fenced, gap)
			}
		}
		r.resynced = follower.Stats().Repl.Resyncs > 0

		// 3. Exactly what the primary committed, and the acks bound it.
		synctime.Wait() // every writer is parked waiting for a target
		for k := range led.keys {
			c := led.chain(uint64(k))
			p, fv := value(t, primary, uint64(k)), value(t, follower, uint64(k))
			if fv != p || p < c.last || p > c.last+c.unsure {
				t.Fatalf("key %d: the promoted follower holds %d, the primary %d, after %d acked increments and %d whose ack never came",
					k, fv, p, c.last, c.unsure)
			}
		}

		// 4. Writing on, then the power cut under the writers.
		dn.route(fln, false)
		<-led.after(crashAt)
		// The power fails with the follower's next group written and its
		// Sync not yet done: that Sync and every disk operation after it
		// fail, and what the group wrote is unsynced, for the cut to tear.
		syncing := ffs.HoldSyncs()
		<-syncing
		led.crashed.Store(true)
		ffs.FailAll(1, errors.New("power cut"))
		ffs.ReleaseAll()
		follower.WAL().Abandon()
		primary.WAL().Abandon()
		close(stop)
		wg.Wait()
		fstop()
		primary.Close()
		follower.Close()
		pfs.PowerCut(ptear)
		ffs.PowerCut(ftear)
		primary, follower = openStore(t, config(pfs)), openStore(t, config(ffs))
		defer primary.Close()
		defer follower.Close()
		r.torn = primary.WAL().Stats().Recovery.TruncatedBytes > 0 ||
			follower.WAL().Stats().Recovery.TruncatedBytes > 0

		// 5. Every acked increment on each disk.
		for k := range led.keys {
			c := led.chain(uint64(k))
			if p := value(t, primary, uint64(k)); p < c.byPrimary {
				t.Fatalf("key %d: the primary's disk holds %d after acking %d", k, p, c.byPrimary)
			}
			if fv := value(t, follower, uint64(k)); fv < c.last {
				t.Fatalf("key %d: the follower's disk holds %d after %d were acked", k, fv, c.last)
			}
		}
	})
	return r
}

// value reads key as a counter; a missing key is 0.
func value(t *testing.T, st *tkv.Store, key uint64) int64 {
	t.Helper()
	v, ok, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("key %d: %v", key, err)
	}
	return n
}

// write is one writer: it adds 1 to its keys in turn until stop, each add
// against the target the drill routes writers to now. After ErrNotPrimary
// it waits for the route to change; after a transport error it redials at
// the current target, and the add whose ack was lost is unsure. Past the
// crash, an error ends it.
func write(t *testing.T, dn *drillNet, led *ledger, w, writers int, stop <-chan struct{}) {
	var c *tkvwire.Conn
	var onPrimary bool
	var routed <-chan struct{} // closed when the route c was dialed on changes
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	wait := func(changed <-chan struct{}) bool {
		select {
		case <-changed:
			return true
		case <-stop:
			return false
		}
	}
	for i := 0; ; i++ {
		key := uint64(w + writers*(i%keysPerWriter))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c == nil {
				var ln *synctime.PipeListener
				ln, onPrimary, routed = dn.target()
				nc, err := net.Conn(nil), net.ErrClosed // no target
				if ln != nil {
					nc, err = ln.Dial()
				}
				if err != nil {
					if !wait(routed) {
						return
					}
					continue
				}
				c = tkvwire.NewConn(nc)
			}
			v, err := c.Add(key, 1)
			if err == nil {
				led.acked(t, key, v, onPrimary)
				break
			}
			c.Close()
			c = nil
			var se *tkvwire.StatusError
			switch {
			case errors.Is(err, tkv.ErrNotPrimary):
				if !wait(routed) { // refused: wait for the route to move on
					return
				}
			case !errors.As(err, &se):
				led.unsure(key) // a transport error: the add may have landed
			case led.crashed.Load():
				led.unsure(key)
				return
			default:
				t.Errorf("writer %d: add of key %d: %v", w, key, err)
				return
			}
		}
	}
}

// drillNet is the drill's network: the listener writers are routed to, and
// the primary's wire server the follower dials.
type drillNet struct {
	mu        sync.Mutex
	ln        *synctime.PipeListener // the writers' target; nil while there is none
	onPrimary bool                   // whether ln serves the primary
	changed   chan struct{}          // closed when ln changes
	primary   *primaryServer         // what the follower dials
}

// primaryServer is one incarnation of the primary's wire server.
type primaryServer struct {
	ln        *synctime.PipeListener
	srv       *tkvwire.Server
	stop      func()
	streaming chan struct{} // closed once the follower read a byte of a stream from it
	once      sync.Once
}

// servePrimary starts a new wire server for st and makes it the one the
// follower dials.
func (n *drillNet) servePrimary(st *tkv.Store) *primaryServer {
	ps := &primaryServer{streaming: make(chan struct{})}
	ps.ln, ps.srv, ps.stop = serve(st)
	n.mu.Lock()
	n.primary = ps
	n.mu.Unlock()
	return ps
}

// route sends the writers to ln (nil: nowhere) and wakes those waiting.
func (n *drillNet) route(ln *synctime.PipeListener, onPrimary bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.changed != nil {
		close(n.changed)
	}
	n.ln, n.onPrimary, n.changed = ln, onPrimary, make(chan struct{})
}

func (n *drillNet) target() (ln *synctime.PipeListener, onPrimary bool, changed <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ln, n.onPrimary, n.changed
}

// dialPrimary is the follower's dial function.
func (n *drillNet) dialPrimary() (net.Conn, error) {
	n.mu.Lock()
	ps := n.primary
	n.mu.Unlock()
	nc, err := ps.ln.Dial()
	if err != nil {
		return nil, err
	}
	return &firstRead{Conn: nc, ps: ps}, nil
}

// firstRead closes its server's streaming channel on the first byte read:
// the shipper that sent it is registered, so a DrainRepl from then on
// fences this stream.
type firstRead struct {
	net.Conn
	ps *primaryServer
}

func (c *firstRead) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.ps.once.Do(func() { close(c.ps.streaming) })
	}
	return n, err
}

// ledger is every key's increment chain as its one writer saw it, and the
// milestones the drill waits for, counted in acks.
type ledger struct {
	mu      sync.Mutex
	keys    []chain
	acks    int
	waits   []milestone
	crashed atomic.Bool // set at the power cut: from then on a failed add is expected
}

// chain is one key's increments: last is the value its latest ack returned,
// unsure the adds since then whose ack never came (each may or may not have
// landed), byPrimary the latest value the primary acked.
type chain struct{ last, unsure, byPrimary int64 }

type milestone struct {
	at   int
	done chan struct{}
}

func newLedger(keys int) *ledger { return &ledger{keys: make([]chain, keys)} }

// acked notes an ack of key's increment with value v. Since only one writer
// adds to a key, v less one is what its last ack returned plus those of the
// unsure adds that landed: fewer is a lost acked increment, more is an
// increment nobody made. An unsure add has landed by the next ack or never
// will: a server answers what it read before the connection ends
// (tkvwire.Server.Close), so a retry cannot overtake its original.
func (l *ledger) acked(t *testing.T, key uint64, v int64, onPrimary bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &l.keys[key]
	if landed := v - 1 - c.last; landed < 0 || landed > c.unsure {
		t.Errorf("key %d: acked at %d with %d adds unsure, the next ack returned %d", key, c.last, c.unsure, v)
	}
	c.last, c.unsure = v, 0
	if onPrimary {
		c.byPrimary = v
	}
	l.acks++
	waits := l.waits[:0]
	for _, m := range l.waits {
		if m.at <= l.acks {
			close(m.done)
		} else {
			waits = append(waits, m)
		}
	}
	l.waits = waits
}

func (l *ledger) unsure(key uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys[key].unsure++
}

// after returns a channel closed once n more increments are acked.
func (l *ledger) after(n int) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := milestone{l.acks + n, make(chan struct{})}
	if n <= 0 {
		close(m.done)
	} else {
		l.waits = append(l.waits, m)
	}
	return m.done
}

func (l *ledger) chain(key uint64) chain {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keys[key]
}
