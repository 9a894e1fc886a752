//go:build goexperiment.synctest

package tkvwire

import (
	"errors"
	"net"
	"testing"

	"github.com/shrink-tm/shrink/internal/synctime"
	"github.com/shrink-tm/shrink/internal/tkv"
)

// dialPipe connects a client end to ln's server.
func dialPipe(t testing.TB, ln *synctime.PipeListener) net.Conn {
	t.Helper()
	nc, err := ln.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return nc
}

// servePipe opens a store of cfg and serves it over a PipeListener. stop
// closes the server and then the store; a test defers it inside its bubble.
func servePipe(t testing.TB, cfg tkv.Config) (srv *Server, ln *synctime.PipeListener, stop func()) {
	t.Helper()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatalf("tkv.Open: %v", err)
	}
	ln = synctime.NewPipeListener()
	srv, stop = serveOn(t, st, ln)
	return srv, ln, stop
}

// serveOn serves st on ln. stop closes the server and then the store.
func serveOn(t testing.TB, st *tkv.Store, ln net.Listener) (srv *Server, stop func()) {
	srv = NewServer(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	return srv, func() {
		srv.Close()
		<-done
		st.Close()
	}
}
