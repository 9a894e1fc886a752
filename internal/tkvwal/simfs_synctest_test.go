//go:build goexperiment.synctest

package tkvwal

import (
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
)

// TestSimFSHeldSyncAndCost: a held Sync offers the bytes it is about to
// make durable and returns only when released, ReleaseAll lets every Sync
// through, and a Sync takes exactly its cost in fake time after its hold.
func TestSimFSHeldSyncAndCost(t *testing.T) {
	synctime.Run(t, func() {
		const cost = 3 * time.Millisecond
		s := &SimFS{}
		s.SetSyncCost(cost)
		f, err := s.OpenAppend("d/f")
		if err != nil {
			t.Fatal(err)
		}
		sync := func() <-chan time.Duration {
			took := make(chan time.Duration, 1)
			go func() {
				start := time.Now()
				if err := f.Sync(); err != nil {
					t.Error(err)
				}
				took <- time.Since(start)
			}()
			return took
		}
		if took := <-sync(); took != cost {
			t.Fatalf("a Sync took %v, want %v", took, cost)
		}

		held := s.HoldSyncs()
		if _, err := f.Write([]byte("12345")); err != nil {
			t.Fatal(err)
		}
		took := sync()
		if n := <-held; n != 5 {
			t.Fatalf("the held Sync offered %d bytes, want 5", n)
		}
		synctime.Advance(time.Hour)
		select {
		case <-took:
			t.Fatal("a held Sync returned before its release")
		default:
		}
		s.Release()
		if got := <-took; got != time.Hour+cost {
			t.Fatalf("the held Sync returned %v after it started, want its hold and its cost", got)
		}

		if _, err := f.Write([]byte("6")); err != nil {
			t.Fatal(err)
		}
		took = sync()
		<-held
		s.ReleaseAll() // lets the held Sync go, and every later one
		<-took
		if got := <-sync(); got != cost {
			t.Fatalf("a Sync after ReleaseAll took %v, want %v", got, cost)
		}
		if err := s.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		s.PowerCut(0)
		if data, _ := simRead(t, s, "d/f"); data != "123456" {
			t.Fatalf("the file holds %q after the cut, want every byte the released Syncs covered", data)
		}
	})
}
