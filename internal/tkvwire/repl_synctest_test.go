//go:build goexperiment.synctest

package tkvwire

import (
	"bufio"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkv"
)

// TestReplHeartbeatAndDrainDeadline, in a bubble (internal/synctime) over
// a synctime.PipeListener: a subscribed stream with nothing to ship
// receives a metadata frame when it subscribes and then one every
// replHeartbeat, exactly. DrainRepl, once the follower has stopped
// reading, queues the fence behind what is unread and returns false at its
// deadline, exactly.
func TestReplHeartbeatAndDrainDeadline(t *testing.T) {
	synctime.Run(t, func() {
		srv, ln, stop := servePipe(t, tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64, ReplRing: 64})
		defer stop()
		nc := dialPipe(t, ln)
		defer nc.Close()
		r := &replRawConn{t: t, nc: nc, br: bufio.NewReader(nc)}

		start := time.Now()
		r.subscribe(0, make([]uint64, 2))
		if d := time.Since(start); d != 0 {
			t.Fatalf("first metadata frame after %v, want it at the subscription", d)
		}
		for i := 1; i <= 3; i++ {
			h, _ := r.read()
			if h.Op != OpReplMeta {
				t.Fatalf("frame %d of an idle stream: op 0x%02x, want metadata", i, h.Op)
			}
			if d, want := time.Since(start), time.Duration(i)*replHeartbeat; d != want {
				t.Fatalf("heartbeat %d after %v, want %v", i, d, want)
			}
		}

		const timeout = time.Second
		drain := time.Now()
		if srv.DrainRepl(timeout) {
			t.Fatal("DrainRepl reported drained a stream whose follower stopped reading")
		}
		if d := time.Since(drain); d != timeout {
			t.Fatalf("DrainRepl gave up after %v, want its deadline, %v", d, timeout)
		}
		if h, _ := r.read(); h.Op != OpReplFence {
			t.Fatalf("first frame after the drain: op 0x%02x, want the fence", h.Op)
		}
	})
}
