package synctime

import (
	"net"
	"sync"
)

// PipeListener is an in-memory net.Listener for tests in a bubble: each
// Dial is a net.Pipe whose one end Accept hands the server. A pipe is
// channels, so a server and a client waiting on one are durably blocked
// and the bubble's clock can move; a real socket would hold it still.
// It builds without the experiment, so a test outside a bubble may use it
// too.
type PipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// NewPipeListener returns an open listener. In a bubble, make it inside.
func NewPipeListener() *PipeListener {
	return &PipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Dial connects a client end to the server that accepts next; it fails
// with net.ErrClosed once the listener is closed.
func (l *PipeListener) Dial() (net.Conn, error) {
	server, client := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *PipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
