package tkvwal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the WAL writes through. OSFS is the real
// thing. The indirection exists for SimFS, the tests' in-memory disk: it
// keeps across a PowerCut only what a Sync or SyncDir made durable, fails
// the Nth write, fsync or any operation, and holds fsyncs for as long as a
// test wants, which is how the fail-stop contract, the crash drills and the
// checkpoint's crash points are proven rather than assumed.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create opens name truncated for writing (used for tmp files that
	// are renamed into place once durable).
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// List returns the file names (not paths) in dir, sorted.
	List(dir string) ([]string, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and creates
	// durable.
	SyncDir(dir string) error
}

// File is the per-file surface the WAL needs: sequential reads for
// recovery, appends plus Sync for the log, Close.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the operating-system FS.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
