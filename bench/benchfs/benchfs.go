// Package benchfs is the benchmark's modelled storage device: a tkvwal.FS
// that keeps real files but replaces every fsync with a fixed wait.
//
// A sandbox's virtual disk makes fsync cost whatever the neighbours'
// traffic makes it cost (measured on the host this was written on: p50
// drifting 313-441 µs between back-to-back batches), so a benchmark that
// rides the real fsync measures the neighbours. With a fixed cost the
// durable-write numbers measure the log's group commit instead. The device
// also remembers how much of each file had been synced, so a test can cut
// the power: PowerLoss truncates every file to its synced length, which is
// what a crash leaves when the operating system's cache is lost too.
package benchfs

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// FS implements tkvwal.FS. Directory listing and creation go straight to
// the operating system; everything that writes is counted and tracked.
type FS struct {
	tkvwal.OSFS
	syncCost time.Duration

	mu    sync.Mutex
	files map[string]*extent // by path, for files this FS has opened for writing

	writes, syncs, bytes atomic.Int64
}

// extent is one file's written and synced lengths.
type extent struct{ written, synced atomic.Int64 }

// New returns a device whose Sync and SyncDir take syncCost.
func New(syncCost time.Duration) *FS {
	return &FS{syncCost: syncCost, files: make(map[string]*extent)}
}

// Counters is the device's work so far.
type Counters struct{ Writes, Syncs, Bytes int64 }

func (f *FS) Counters() Counters {
	return Counters{f.writes.Load(), f.syncs.Load(), f.bytes.Load()}
}

// spinTail is how much of a sync wait is spun rather than slept: the
// kernel wakes a sleeper some tens of microseconds late, and the cost is
// meant to be fixed.
const spinTail = 160 * time.Microsecond

// wait blocks the calling thread for the sync cost, the way an fsync
// system call would.
func (f *FS) wait() {
	deadline := time.Now().Add(f.syncCost)
	if d := f.syncCost - spinTail; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // cut short or not, the spin below keeps the deadline
	}
	for time.Now().Before(deadline) {
		runtime.Gosched() // the device is waiting, not computing: others may have the processor
	}
	f.syncs.Add(1)
}

// extentOf returns the tracked extent for path; a file first seen with
// bytes already in it had them before this device existed, so they count
// as synced.
func (f *FS) extentOf(path string, fresh bool) *extent {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.files[path]
	if e == nil || fresh {
		e = new(extent)
		if !fresh {
			if st, err := os.Stat(path); err == nil {
				e.written.Store(st.Size())
				e.synced.Store(st.Size())
			}
		}
		f.files[path] = e
	}
	return e
}

func (f *FS) OpenAppend(name string) (tkvwal.File, error) {
	e := f.extentOf(name, false)
	inner, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{File: inner, fs: f, ext: e}, nil
}

func (f *FS) Create(name string) (tkvwal.File, error) {
	inner, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{File: inner, fs: f, ext: f.extentOf(name, true)}, nil
}

func (f *FS) Rename(oldname, newname string) error {
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	f.mu.Lock()
	if e := f.files[oldname]; e != nil {
		f.files[newname] = e
		delete(f.files, oldname)
	}
	f.mu.Unlock()
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	delete(f.files, name)
	f.mu.Unlock()
	return os.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	if err := os.Truncate(name, size); err != nil {
		return err
	}
	f.mu.Lock()
	if e := f.files[name]; e != nil {
		e.written.Store(min(e.written.Load(), size))
		e.synced.Store(min(e.synced.Load(), size))
	}
	f.mu.Unlock()
	return nil
}

func (f *FS) SyncDir(string) error {
	f.wait()
	return nil
}

// PowerLoss truncates every tracked file to its last synced length and
// returns the bytes cut. Call it with no file open for writing.
func (f *FS) PowerLoss() (cut int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for path, e := range f.files {
		synced := e.synced.Load()
		if lost := e.written.Load() - synced; lost > 0 {
			if err := os.Truncate(path, synced); err != nil {
				return cut, err
			}
			e.written.Store(synced)
			cut += lost
		}
	}
	return cut, nil
}

type file struct {
	*os.File
	fs  *FS
	ext *extent
}

func (f *file) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.ext.written.Add(int64(n))
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(n))
	return n, err
}

// Sync makes everything written before the call durable, for the fixed
// cost; the bytes stay in the operating system's cache.
func (f *file) Sync() error {
	upTo := f.ext.written.Load()
	f.fs.wait()
	f.ext.synced.Store(upTo)
	return nil
}
