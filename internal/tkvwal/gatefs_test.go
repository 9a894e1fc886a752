package tkvwal

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvlog"
)

// gateFS is an OSFS whose segment files (the ones opened for append)
// block in Sync until the test lets them through. It is what makes the
// group-commit tests deterministic: while a group's fsync is held, the
// test decides exactly which records are staged behind it, and the lane
// is known to be inside Sync — touching nothing else — until released.
// Records written are counted per Sync: that is the group's size, however
// many shards (and so Write calls) it came from.
type gateFS struct {
	OSFS
	entered chan int      // a Sync has started; carries the records written since the last one
	release chan error    // what the held Sync returns
	opened  chan struct{} // closed by open: every Sync passes from then on
	once    sync.Once
	records atomic.Int64
}

func newGateFS() *gateFS {
	return &gateFS{entered: make(chan int), release: make(chan error), opened: make(chan struct{})}
}

func (g *gateFS) OpenAppend(name string) (File, error) {
	f, err := g.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

// open stops gating, for shutdown paths that flush on their own.
func (g *gateFS) open() { g.once.Do(func() { close(g.opened) }) }

// next waits for the log to enter its next Sync and returns the records
// written ahead of it. The Sync stays held until finish.
func (g *gateFS) next(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no Sync entered: the group never formed")
		return 0
	}
}

// finish lets the held Sync return err.
func (g *gateFS) finish(err error) { g.release <- err }

type gatedFile struct {
	File
	g *gateFS
}

func (f *gatedFile) Write(p []byte) (int, error) {
	for b := p; len(b) >= 4; b = b[4+binary.LittleEndian.Uint32(b):] { // tkvlog's length prefix
		f.g.records.Add(1)
	}
	return f.File.Write(p)
}

func (f *gatedFile) Sync() error {
	select {
	case f.g.entered <- int(f.g.records.Swap(0)):
	case <-f.g.opened:
		return nil
	}
	select {
	case err := <-f.g.release:
		return err
	case <-f.g.opened:
		return nil
	}
}

// openGated opens a log over a gateFS and arranges for the gate to open
// before the log is closed when the test ends.
func openGated(t *testing.T, shards int) (*WAL, *gateFS) {
	t.Helper()
	g := newGateFS()
	w, err := Open(Options{Dir: t.TempDir(), Shards: shards, FS: g},
		func(*tkvlog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.open()
		w.Close()
	})
	return w, g
}

// setLaneFallback fixes the lane's fallback timer at d, whatever fsync
// costs it goes on to measure in this test (the EMA moves an eighth of
// the way per flush; the cap does not move). An hour rules the timer
// out, so a group can only form from arrivals. Call it while the lane is
// provably idle — before the first Append or while a Sync is held — so
// the write is ordered before the lane's next read by the channel
// operation that wakes it.
func setLaneFallback(w *WAL, d time.Duration) {
	w.maxWait = d
	w.fsyncEMA.Store(int64(1000 * time.Hour))
}
