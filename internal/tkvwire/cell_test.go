package tkvwire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// liveObjects returns the heap objects still reachable after collections
// (two: the first moves what sync.Pools hold to their victim caches, the
// second frees it).
func liveObjects() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapObjects
}

// TestWirePutObjectsPerValue: a wire put's value is one heap object, its
// cell (tkv.NewCell), not a string header and the bytes behind it. N puts
// of distinct 128-byte values over keys already present leave N objects
// more, give or take a few dozen of the runtime's and the connection's.
func TestWirePutObjectsPerValue(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are its own")
	}
	const keys, valLen = 5_000, 128
	addr, st := serveStore(t, tkv.Config{Shards: 4, PoolSize: 2, Buckets: 1 << 12})
	// Every key present with one shared cell, so a put overwrites: the map
	// allocates nothing, and the old value was no object of the key's own.
	shared := tkv.NewCell("-")
	for k := uint64(0); k < keys; k++ {
		if _, err := st.PutRef(k, shared); err != nil {
			t.Fatal(err)
		}
	}
	c := dialTest(t, addr)
	val := []byte(strings.Repeat("v", valLen))
	put := func(k uint64) {
		copy(val, fmt.Sprintf("%08d", k)) // no two values alike, none interned
		if _, err := c.Put(k, string(val)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(keys); k < keys+64; k++ {
		put(k) // warm the connection, its frame pools and the store's slots
	}
	before := liveObjects()
	for k := uint64(0); k < keys; k++ {
		put(k)
	}
	objects := liveObjects() - before
	t.Logf("%d puts of %d-byte values left %d objects, %.4f per value", keys, valLen, objects, float64(objects)/keys)
	if objects+64 < keys || objects > keys+64 {
		t.Errorf("%d wire puts left %d objects, want %d (±64): one cell a value", keys, objects, keys)
	}
	if v, ok, err := st.Get(7); err != nil || !ok || v[:8] != "00000007" || len(v) != valLen {
		t.Fatalf("Get(7) = %q, %v, %v", v, ok, err)
	}
}

// TestStoreMadeCellsSurviveCollection: a value cell the store makes holds
// its bytes through collections once nothing but the map refers to it. The
// values go in through every path that makes one — a wire put over the
// intern limit, an interned wire put (the empty value among them), a wire
// add below 100 and past it, and the WAL recovery that applies them all
// again — then every other reference goes, and rounds of garbage of the
// cells' sizes, a collection after each, would reuse the memory of any
// cell freed early. Every value must read back byte-exact. Under -race the
// build checks every unsafe pointer conversion too (checkptr).
func TestStoreMadeCellsSurviveCollection(t *testing.T) {
	fs := &tkvwal.SimFS{}
	cfg := tkv.Config{Shards: 4, PoolSize: 2, Buckets: 128, WAL: &tkvwal.Options{Dir: "wal", FS: fs}}
	want := map[uint64]string{}
	st := serveOnce(t, cfg, func(c *Conn) {
		buf := make([]byte, 0, 512)
		for k := uint64(0); k < 200; k++ {
			buf = buf[:0]
			for len(buf) < maxInternValue+1+int(k) {
				buf = fmt.Appendf(buf, "%d:", k)
			}
			if _, err := c.Put(k, string(buf)); err != nil {
				t.Fatal(err)
			}
			want[k] = string(buf)
			clear(buf[:cap(buf)])
		}
		for k := uint64(1000); k < 1200; k++ {
			v := strings.Repeat("i", int(k%(maxInternValue+1)))
			if _, err := c.Put(k, v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		for k := uint64(2000); k < 2100; k++ {
			delta := int64(k % 100) // a first add below 100
			if k%2 == 0 {
				delta = -1_000_000_007 * int64(k) // and past it, either sign
			}
			n, err := c.Add(k, delta)
			if err != nil {
				t.Fatal(err)
			}
			if k%3 == 0 {
				if n, err = c.Add(k, 97); err != nil {
					t.Fatal(err)
				}
			}
			want[k] = fmt.Sprint(n)
		}
	})
	check := func(st *tkv.Store, what string) {
		t.Helper()
		churnCells()
		for k, w := range want {
			v, ok, err := st.Get(k)
			if err != nil || !ok || v != w {
				t.Fatalf("%s: Get(%d) = %q, %v, %v; want %q", what, k, v, ok, err, w)
			}
		}
	}
	check(st, "served")
	st.Close()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, "recovered")
}

// serveOnce opens a store, serves it on loopback, runs fn over one
// connection and closes the connection and the server, so that nothing of
// the serving path (the connection's intern map above all) refers to a
// value any more. It returns the store, open; the caller closes it.
func serveOnce(t *testing.T, cfg tkv.Config, fn func(*Conn)) *tkv.Store {
	t.Helper()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fn(c)
	c.Close()
	srv.Close()
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	return st
}

// churnCells fills the heap's small size classes with garbage of the
// cells' sizes, written through, with a collection after every round.
func churnCells() {
	var sink [][]byte
	for round := 0; round < 8; round++ {
		runtime.GC()
		sink = sink[:0]
		for size := 16; size <= 16+512; size += 8 {
			for i := 0; i < 64; i++ {
				b := make([]byte, size)
				for j := range b {
					b[j] = 0xA5
				}
				sink = append(sink, b)
			}
		}
	}
	runtime.GC()
	runtime.KeepAlive(sink)
}
