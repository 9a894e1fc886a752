package tkvwal

import (
	"errors"
	"io"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// SimFS's rules, one test each, so that a fake more lenient than its doc
// comment cannot let the crash drills and the checkpoint sweep pass.

// simWrite appends data to name on fs and syncs it when sync is set.
func simWrite(t *testing.T, s *SimFS, name, data string, sync bool) {
	t.Helper()
	f, err := s.OpenAppend(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// simRead returns name's bytes on fs, or ok=false if there is no such file.
func simRead(t *testing.T, s *SimFS, name string) (data string, ok bool) {
	t.Helper()
	f, err := s.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), true
}

// TestSimFSPowerCutDropsUnsyncedBytes: a file keeps its contents as of its
// last Sync: it loses what was written after it, and gets back what a
// truncate after it cut.
func TestSimFSPowerCutDropsUnsyncedBytes(t *testing.T) {
	s := &SimFS{}
	simWrite(t, s, "d/synced", "durable", true)
	simWrite(t, s, "d/synced", "+lost", false)
	simWrite(t, s, "d/unsynced", "lost", false)
	simWrite(t, s, "d/cut", "durable", true)
	simWrite(t, s, "d/cut+synced", "durable", true)
	for _, name := range []string{"d/cut", "d/cut+synced"} {
		if err := s.Truncate(name, 3); err != nil {
			t.Fatal(err)
		}
	}
	simWrite(t, s, "d/cut", "+lost", false)
	simWrite(t, s, "d/cut+synced", "", true)
	if err := s.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"d/synced": "durable+lost", "d/cut": "dur+lost", "d/cut+synced": "dur"} {
		if got, _ := simRead(t, s, name); got != want {
			t.Fatalf("%s before the cut: %q, want %q", name, got, want)
		}
	}
	s.PowerCut(0)
	for name, want := range map[string]string{"d/synced": "durable", "d/unsynced": "", "d/cut": "durable", "d/cut+synced": "dur"} {
		if got, ok := simRead(t, s, name); !ok || got != want {
			t.Fatalf("%s after the cut: %q (exists %v), want %q", name, got, ok, want)
		}
	}
}

// TestSimFSPowerCutTearsAPrefix: a power cut with a nonzero tear keeps a
// prefix of what a file grew by since its last Sync, of a length the tear
// picks: the same tear over the same disk keeps the same bytes, some tears
// keep part of them, and what is kept is durable. A file that a truncate
// cut since its last Sync goes back to that Sync whatever the tear.
func TestSimFSPowerCutTearsAPrefix(t *testing.T) {
	const synced, grown = "durable", "+0123456789"
	disk := func() *SimFS {
		s := &SimFS{}
		simWrite(t, s, "d/grown", synced, true)
		simWrite(t, s, "d/grown", grown, false)
		simWrite(t, s, "d/cut", synced, true)
		if err := s.Truncate("d/cut", 3); err != nil {
			t.Fatal(err)
		}
		simWrite(t, s, "d/cut", grown, false)
		if err := s.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	lengths := map[int]bool{}
	for tear := uint64(1); tear <= 32; tear++ {
		var kept string
		for range 2 {
			s := disk()
			s.PowerCut(tear)
			got, _ := simRead(t, s, "d/grown")
			if kept != "" && got != kept {
				t.Fatalf("tear %d kept %q on one disk and %q on its twin", tear, kept, got)
			}
			kept = got
			if !strings.HasPrefix(synced+grown, got) || len(got) < len(synced) {
				t.Fatalf("tear %d: the file holds %q, want %q and a prefix of %q", tear, got, synced, grown)
			}
			if cut, _ := simRead(t, s, "d/cut"); cut != synced {
				t.Fatalf("tear %d: the truncated file holds %q, want its last Sync's %q", tear, cut, synced)
			}
			s.PowerCut(tear)
			if again, _ := simRead(t, s, "d/grown"); again != got {
				t.Fatalf("tear %d: a second cut left %q of the %q the first kept", tear, again, got)
			}
		}
		lengths[len(kept)-len(synced)] = true
	}
	partial := 0
	for n := range lengths {
		if n > 0 && n < len(grown) {
			partial++
		}
	}
	if partial < 2 {
		t.Fatalf("32 tears kept %v bytes of %d, want at least two partial lengths", lengths, len(grown))
	}
}

// TestSimFSPowerCutRevertsNames: a create, a rename and a remove that no
// SyncDir followed are undone by a power cut; once a SyncDir follows, they
// stay.
func TestSimFSPowerCutRevertsNames(t *testing.T) {
	for _, synced := range []bool{false, true} {
		s := &SimFS{}
		simWrite(t, s, "d/renamed", "r", true)
		simWrite(t, s, "d/removed", "x", true)
		if err := s.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		simWrite(t, s, "d/created", "c", true)
		if err := s.Rename("d/renamed", "d/target"); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove("d/removed"); err != nil {
			t.Fatal(err)
		}
		want := []string{"created", "target"}
		if synced {
			if err := s.SyncDir("d"); err != nil {
				t.Fatal(err)
			}
		} else {
			want = []string{"removed", "renamed"}
		}
		s.PowerCut(0)
		if got, err := s.List("d"); err != nil || !slices.Equal(got, want) {
			t.Fatalf("dir synced %v: %v (err %v) after the cut, want %v", synced, got, err, want)
		}
		if synced {
			if got, _ := simRead(t, s, "d/target"); got != "r" {
				t.Fatalf("renamed file holds %q after the cut", got)
			}
		}
	}
}

// TestSimFSFaultsFromTheNthCall: a fault fails every call of its operation
// from the nth after it is armed on, counts no other operation, and a power
// cut disarms it.
func TestSimFSFaultsFromTheNthCall(t *testing.T) {
	boom := errors.New("boom")
	s := &SimFS{}
	f, err := s.OpenAppend("d/f")
	if err != nil {
		t.Fatal(err)
	}
	s.FailWrites(3, boom)
	for i, want := range []error{nil, nil, boom, boom} {
		if _, err := f.Write([]byte("w")); err != want {
			t.Fatalf("write %d: %v, want %v", i+1, err, want)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync after write %d: %v", i+1, err)
		}
	}
	s.FailSyncs(2, boom)
	for i, want := range []error{nil, boom, boom} {
		if err := f.Sync(); err != want {
			t.Fatalf("sync %d: %v, want %v", i+1, err, want)
		}
	}
	s.PowerCut(0)
	s.FailAll(2, boom)
	if _, err := s.List("d"); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if err := s.SyncDir("d"); err != boom {
		t.Fatalf("second call: %v, want the fault", err)
	}
	if _, err := s.Create("d/g"); err != boom {
		t.Fatalf("third call: %v, want the fault", err)
	}
	s.PowerCut(0)
	if err := s.SyncDir("d"); err != nil {
		t.Fatalf("after the power cut: %v", err)
	}
}
