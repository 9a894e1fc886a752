package tkvwal

import (
	"bytes"
	"hash/fnv"
	"io"
	"io/fs"
	"maps"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// SimFS is an in-memory FS for tests that models what a power cut keeps.
// Each file has its bytes and its durable bytes, its contents as of its last
// Sync (so a truncate no Sync followed is undone too); the directory has its
// names and its names as of its last SyncDir. PowerCut keeps only what those
// two rules made durable.
//
// On top of that a test can fail an operation from its Nth call on
// (FailWrites, FailSyncs, FailAll), hold each Sync until it lets it go
// (HoldSyncs), and give every Sync a cost (SetSyncCost), which in a synctest
// bubble is fake time. The zero SimFS is an empty disk with one directory,
// the log's: MkdirAll creates nothing, and List and SyncDir take every name.
type SimFS struct {
	mu      sync.Mutex
	names   map[string]*simNode // path -> file
	durable map[string]*simNode // the names as of the last SyncDir
	calls   [opKinds]int64
	faults  [opKinds]struct {
		at  int64 // the call count from which calls fail; 0 = never
		err error
	}
	gate syncGate
}

// The operations a fault can select. Every call counts as opAny; a Write
// or a Sync counts as itself too.
const opWrite, opSync, opAny, opKinds = 0, 1, 2, 3

// syncGate is what a Sync passes before it makes its bytes durable.
type syncGate struct {
	held    chan int      // nil while Syncs pass; a held Sync offers its unsynced bytes here
	release chan struct{} // lets one held Sync return; closed by ReleaseAll
	cost    time.Duration
}

// simNode is one file. synced is the contents its last Sync made durable: a
// prefix of data until a truncate cuts below it, which gives data a fresh
// array and leaves synced as it was.
type simNode struct {
	data   []byte
	synced []byte
}

// FailWrites fails every Write from the nth from now on with err.
func (s *SimFS) FailWrites(n int64, err error) { s.arm(opWrite, n, err) }

// FailSyncs fails every Sync from the nth from now on with err.
func (s *SimFS) FailSyncs(n int64, err error) { s.arm(opSync, n, err) }

// FailAll fails every operation, of the FS or of a file, from the nth from
// now on with err: a crash point.
func (s *SimFS) FailAll(n int64, err error) { s.arm(opAny, n, err) }

func (s *SimFS) arm(kind int, n int64, err error) {
	s.locked(func() { s.faults[kind].at, s.faults[kind].err = s.calls[kind]+n, err })
}

// SetSyncCost makes every later Sync take d.
func (s *SimFS) SetSyncCost(d time.Duration) { s.locked(func() { s.gate.cost = d }) }

// HoldSyncs holds every later Sync before it starts, until the test lets
// it go: the Sync offers on the returned channel the bytes it is about to
// make durable, then waits for Release, or for ReleaseAll.
func (s *SimFS) HoldSyncs() <-chan int {
	held := make(chan int)
	s.locked(func() { s.gate.held, s.gate.release = held, make(chan struct{}) })
	return held
}

// Release lets the Sync taken from HoldSyncs' channel return.
func (s *SimFS) Release() {
	var r chan struct{}
	s.locked(func() { r = s.gate.release })
	r <- struct{}{}
}

// ReleaseAll stops holding: every held Sync, and every later one, passes.
func (s *SimFS) ReleaseAll() {
	s.locked(func() {
		if s.gate.release != nil {
			close(s.gate.release)
		}
		s.gate.held, s.gate.release = nil, nil
	})
}

// PowerCut is a power failure and the reboot after it: every file goes
// back to its contents at its last Sync, the names go back to their last
// SyncDir, and every armed fault is disarmed. Abandon or close the log first.
//
// A file that only grew since its last Sync keeps a prefix of the bytes it
// grew by, as a disk that wrote part of them before the power failed does:
// tear picks the prefix's length per file (the same tear over the same
// disk keeps the same bytes), and tear 0 keeps none. What a cut keeps is
// durable from then on.
func (s *SimFS) PowerCut(tear uint64) {
	s.locked(func() {
		s.names = maps.Clone(s.durable)
		for name, n := range s.names {
			if grown := len(n.data) - len(n.synced); tear != 0 && grown > 0 && bytes.HasPrefix(n.data, n.synced) {
				h := fnv.New64a()
				h.Write([]byte(name))
				kept := rand.New(rand.NewPCG(tear, h.Sum64())).IntN(grown + 1)
				n.synced = slices.Clip(n.data[:len(n.synced)+kept])
			}
			n.data = n.synced
		}
		clear(s.faults[:])
	})
}

func (s *SimFS) locked(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// do counts a call of kind and, unless it draws a fault, runs then under mu.
func (s *SimFS) do(kind int, then func() error) (err error) {
	s.locked(func() {
		s.calls[opAny]++
		if kind != opAny {
			s.calls[kind]++
		}
		for _, k := range [...]int{kind, opAny} {
			if f := s.faults[k]; f.at > 0 && s.calls[k] >= f.at {
				err = f.err
				return
			}
		}
		if s.names == nil {
			s.names = map[string]*simNode{}
		}
		if then != nil {
			err = then()
		}
	})
	return err
}

// existing is do with then given the file called name, which must exist.
func (s *SimFS) existing(op, name string, then func(*simNode)) error {
	return s.do(opAny, func() error {
		n := s.names[name]
		if n == nil {
			return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
		}
		then(n)
		return nil
	})
}

func (s *SimFS) MkdirAll(string) error { return s.do(opAny, nil) }

func (s *SimFS) OpenAppend(name string) (File, error) { return s.open(name, false, true) }

// Create puts a new, empty file under name.
func (s *SimFS) Create(name string) (File, error) { return s.open(name, true, true) }

func (s *SimFS) Open(name string) (File, error) { return s.open(name, false, false) }

// open opens the file called name: a new one when fresh, or when there is
// none and create is set.
func (s *SimFS) open(name string, fresh, create bool) (File, error) {
	f := &simFile{s: s}
	err := s.do(opAny, func() error {
		if f.n = s.names[name]; fresh || f.n == nil && create {
			f.n = &simNode{}
			s.names[name] = f.n
		}
		if f.n == nil {
			return &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (s *SimFS) Rename(oldname, newname string) error {
	return s.existing("rename", oldname, func(n *simNode) {
		delete(s.names, oldname)
		s.names[newname] = n
	})
}

func (s *SimFS) Remove(name string) error {
	return s.existing("remove", name, func(*simNode) { delete(s.names, name) })
}

// Truncate cuts the bytes; what is durable stays until the next Sync.
func (s *SimFS) Truncate(name string, size int64) error {
	return s.existing("truncate", name, func(n *simNode) {
		n.data = slices.Clone(n.data[:min(int(size), len(n.data))])
	})
}

func (s *SimFS) List(string) (names []string, err error) {
	err = s.do(opAny, func() error {
		for name := range s.names {
			names = append(names, filepath.Base(name))
		}
		slices.Sort(names)
		return nil
	})
	return names, err
}

func (s *SimFS) SyncDir(string) error {
	return s.do(opAny, func() error { s.durable = maps.Clone(s.names); return nil })
}

// simFile is an open SimFS file: it reads from off and writes at the end.
type simFile struct {
	s   *SimFS
	n   *simNode
	off int
}

func (f *simFile) Read(p []byte) (n int, err error) {
	err = f.s.do(opAny, func() error {
		if f.off >= len(f.n.data) {
			return io.EOF
		}
		n = copy(p, f.n.data[f.off:])
		f.off += n
		return nil
	})
	return n, err
}

func (f *simFile) Write(p []byte) (int, error) {
	if err := f.s.do(opWrite, func() error { f.n.data = append(f.n.data, p...); return nil }); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Sync waits out its hold, then counts itself, then pays its cost and
// makes the contents as of its count durable. A fault armed while it is
// held applies to it. The log never syncs one file from two goroutines at
// once; the Sync that returns last sets what is durable.
func (f *simFile) Sync() error {
	var g syncGate
	var pending int
	var contents []byte
	f.s.locked(func() { g, pending = f.s.gate, len(f.n.data)-len(f.n.synced) })
	if g.held != nil {
		select {
		case g.held <- pending:
			<-g.release
		case <-g.release:
		}
	}
	if err := f.s.do(opSync, func() error { contents = slices.Clip(f.n.data); return nil }); err != nil {
		return err
	}
	time.Sleep(g.cost)
	f.s.locked(func() { f.n.synced = contents })
	return nil
}

func (f *simFile) Close() error { return f.s.do(opAny, nil) }
