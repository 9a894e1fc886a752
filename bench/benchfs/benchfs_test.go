package benchfs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func size(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestPowerLossKeepsOnlySyncedBytes(t *testing.T) {
	dir := t.TempDir()
	fs := New(50 * time.Microsecond)

	seg := filepath.Join(dir, "seg")
	f, err := fs.OpenAppend(seg)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 100))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 50))

	// A file written and synced under one name and renamed keeps its
	// synced length under the new one; one never synced keeps nothing.
	tmp, final := filepath.Join(dir, "ckpt.tmp"), filepath.Join(dir, "ckpt")
	c, err := fs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(make([]byte, 30))
	c.Sync()
	c.Write(make([]byte, 5))
	c.Close()
	if err := fs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	u, err := fs.Create(filepath.Join(dir, "unsynced"))
	if err != nil {
		t.Fatal(err)
	}
	u.Write(make([]byte, 9))
	u.Close()
	f.Close()

	cut, err := fs.PowerLoss()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 50+5+9 {
		t.Errorf("power loss cut %d bytes, want 64", cut)
	}
	for path, want := range map[string]int64{seg: 100, final: 30, filepath.Join(dir, "unsynced"): 0} {
		if got := size(t, path); got != want {
			t.Errorf("%s is %d bytes after power loss, want %d", filepath.Base(path), got, want)
		}
	}
	if got := fs.Counters(); got.Writes != 5 || got.Syncs != 2 || got.Bytes != 194 {
		t.Errorf("counters = %+v, want 5 writes, 2 syncs, 194 bytes", got)
	}

	// Bytes that were in a file before the device first saw it count as
	// synced; appends after that do not until Sync.
	fs2 := New(0)
	g, err := fs2.OpenAppend(seg)
	if err != nil {
		t.Fatal(err)
	}
	g.Write(make([]byte, 7))
	g.Close()
	if _, err := fs2.PowerLoss(); err != nil {
		t.Fatal(err)
	}
	if got := size(t, seg); got != 100 {
		t.Errorf("reopened segment is %d bytes after power loss, want 100", got)
	}
}

func TestSyncTakesTheStatedCost(t *testing.T) {
	const cost = 500 * time.Microsecond
	fs := New(cost)
	f, err := fs.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fastest := time.Hour
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		f.Sync()
		fastest = min(fastest, time.Since(t0))
	}
	// A loaded machine can make any one wait long, so only the floor
	// and the best case are held to the cost.
	if fastest < cost || fastest > cost+cost/5 {
		t.Errorf("fastest of 20 syncs took %v, want %v to %v", fastest, cost, cost+cost/5)
	}
}
