//go:build goexperiment.synctest

package tkvwire

import (
	"errors"
	"net"
	"sync"
	"testing"

	"github.com/shrink-tm/shrink/internal/tkv"
)

// pipeListener is an in-memory net.Listener for tests in a bubble
// (internal/synctime): each dial is a net.Pipe whose one end Accept hands
// the server. A pipe is channels, so a server and client waiting on one
// are durably blocked and the bubble's clock can move; a real socket
// would hold it still.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial connects a client end to the listener's server.
func (l *pipeListener) dial(t testing.TB) net.Conn {
	t.Helper()
	server, client := net.Pipe()
	select {
	case l.conns <- server:
		return client
	case <-l.done:
		t.Fatal("dial: listener closed")
		return nil
	}
}

// servePipe opens a store of cfg and serves it over a pipeListener. stop
// closes the server and then the store; a test defers it inside its bubble.
func servePipe(t testing.TB, cfg tkv.Config) (srv *Server, ln *pipeListener, stop func()) {
	t.Helper()
	st, err := tkv.Open(cfg)
	if err != nil {
		t.Fatalf("tkv.Open: %v", err)
	}
	ln = newPipeListener()
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
