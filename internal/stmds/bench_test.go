package stmds

import (
	"sync/atomic"
	"testing"

	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stm/swiss"
)

// benchParallelAdds builds nodes from several goroutines at once: every
// goroutine adds new keys from a range of its own to one shared structure,
// so what the goroutines share is the structure's upper levels (read) and
// whatever node construction itself touches — which, since a var's identity
// is its address, is nothing. Run at -cpu 1,2 and with a fixed
// -benchtime=Nx: the structure grows with N.
func benchParallelAdds(b *testing.B, add func(tx stm.Tx, key int64) error) {
	tm := swiss.New(swiss.Options{Wait: stm.WaitBusy})
	var ranges atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		th := tm.Register("w")
		base := ranges.Add(1) << 40
		var key int64
		body := func(tx stm.Tx) error { return add(tx, key) }
		for i := uint64(0); pb.Next(); i++ {
			// Spread over the range, so a tree is not fed an ascending run.
			key = base | int64(i*0x9e3779b97f4a7c15>>24)
			if err := th.Atomically(body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkRBTreeInsertParallel(b *testing.B) {
	tree := NewRBTree[int64]()
	benchParallelAdds(b, func(tx stm.Tx, key int64) error {
		_, err := tree.Insert(tx, key, key)
		return err
	})
}

func BenchmarkHashMapPutParallel(b *testing.B) {
	m := NewHashMap[int64](1 << 16)
	benchParallelAdds(b, func(tx stm.Tx, key int64) error {
		_, err := m.Put(tx, uint64(key), key)
		return err
	})
}
