//go:build goexperiment.synctest

package tkvwire

import (
	"bufio"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
)

// TestCloseAnswersWhatItRead, in a bubble: Close stops a connection's reads
// but answers the requests the server already read before the connection
// ends. Two adds arrive in one write and run; their acks wait on a held
// WAL Sync when Close starts. Once the Sync is let go, the client gets both
// acks and only then the end of the connection: a client that sees its
// connection end and retries elsewhere is never overtaken by a request the
// server read.
func TestCloseAnswersWhatItRead(t *testing.T) {
	synctime.Run(t, func() {
		fs := &tkvwal.SimFS{}
		st, err := tkv.Open(tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64,
			WAL: &tkvwal.Options{Dir: "wal", FS: fs}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ln := synctime.NewPipeListener()
		srv, _ := serveOn(t, st, ln)
		nc := dialPipe(t, ln)
		defer nc.Close()

		held := fs.HoldSyncs()
		if _, err := nc.Write(AppendAddReq(AppendAddReq(nil, 1, 10, 1), 2, 11, 1)); err != nil {
			t.Fatal(err)
		}
		<-held // both adds ran; the first one's Sync is held
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		synctime.Wait()
		fs.ReleaseAll()

		r := &replRawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
		for id := uint64(1); id <= 2; id++ {
			h, p := r.read()
			if v, err := ParseUintResp(OpAdd, p); h.ID != id || h.Status != StatusOK || err != nil || v != 1 {
				t.Fatalf("response %d: %+v, value %d, %v; want add %d acked at 1", id, h, v, err, id)
			}
		}
		if _, err := r.br.ReadByte(); !errors.Is(err, io.EOF) {
			t.Fatalf("after the owed responses: %v, want the end of the connection", err)
		}
		<-closed
	})
}

// TestCloseCutsOffAPeerThatDoesNotRead: a peer that never takes its
// responses holds Close for closeGrace, exactly, and no longer.
func TestCloseCutsOffAPeerThatDoesNotRead(t *testing.T) {
	synctime.Run(t, func() {
		st, err := tkv.Open(tkv.Config{Shards: 2, PoolSize: 2, Buckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ln := synctime.NewPipeListener()
		srv, _ := serveOn(t, st, ln)
		nc := dialPipe(t, ln)
		defer nc.Close()

		if _, err := nc.Write(AppendPingReq(nil, 1)); err != nil {
			t.Fatal(err)
		}
		synctime.Wait() // the ping's response waits for a reader that never comes
		start := time.Now()
		srv.Close()
		if d := time.Since(start); d != closeGrace {
			t.Fatalf("Close returned after %v, want closeGrace, %v", d, closeGrace)
		}
	})
}
