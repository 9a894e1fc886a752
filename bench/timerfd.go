package main

import (
	"container/heap"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// fdPacer wakes parked callers at their due times off a Linux timerfd
// instead of the Go runtime's timers.
//
// The runtime waits for its timers inside epoll_wait, whose timeout is in
// whole milliseconds: with every caller asleep and no traffic, a 200 µs
// sleep returns after a millisecond. Sixteen callers paced that way fall
// into step — all late together, all catching up together — and the
// latency percentiles measure that rhythm, differently on every run. A
// timerfd is just another descriptor in the same epoll set, so its expiry
// ends the wait at once; the runtime's own timers, and with them the
// program under test, are left exactly as they were.
type fdPacer struct {
	base time.Time
	f    *os.File
	fd   syscall.RawConn
	done sync.WaitGroup

	mu      sync.Mutex
	waiters waiterHeap
	armed   int64 // due time the descriptor is set for, 0 when idle
}

type waiter struct {
	due  int64
	wake chan struct{}
}

type waiterHeap []waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h waiterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)        { *h = append(*h, x.(waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	*h = old[:len(old)-1]
	return w
}

// itimerspec is struct itimerspec on 64-bit Linux.
type itimerspec struct{ interval, value syscall.Timespec }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK: lets the runtime poll the descriptor
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

func newFDPacer(base time.Time) (*fdPacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	p := &fdPacer{base: base, f: os.NewFile(fd, "timerfd")}
	var err error
	if p.fd, err = p.f.SyscallConn(); err != nil {
		p.f.Close()
		return nil, err
	}
	p.done.Add(1)
	go p.loop()
	return p, nil
}

// close stops the pacer; no caller may be waiting.
func (p *fdPacer) close() {
	p.f.Close()
	p.done.Wait()
}

func (p *fdPacer) now() int64 { return int64(time.Since(p.base)) }

// arm sets the descriptor to expire at due. Called with mu held.
func (p *fdPacer) arm(due int64) {
	p.armed = due
	spec := itimerspec{value: syscall.NsecToTimespec(max(due-p.now(), 1))}
	// Control fails only once the descriptor is closed, when nobody is
	// waiting any more.
	p.fd.Control(func(fd uintptr) {
		syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	})
}

// loop sleeps on the descriptor and releases every caller whose time has come.
func (p *fdPacer) loop() {
	defer p.done.Done()
	var expirations [8]byte
	for {
		if _, err := p.f.Read(expirations[:]); err != nil {
			return
		}
		p.mu.Lock()
		now := p.now()
		for len(p.waiters) > 0 && p.waiters[0].due <= now {
			heap.Pop(&p.waiters).(waiter).wake <- struct{}{}
		}
		p.armed = 0
		if len(p.waiters) > 0 {
			p.arm(p.waiters[0].due)
		}
		p.mu.Unlock()
	}
}

// fdClock is one caller's handle on the pacer.
type fdClock struct {
	p    *fdPacer
	wake chan struct{} // capacity 1: the pacer never blocks on a caller
}

func (p *fdPacer) clock() *fdClock { return &fdClock{p, make(chan struct{}, 1)} }

func (c *fdClock) now() int64 { return c.p.now() }

func (c *fdClock) waitUntil(t int64) int64 {
	p := c.p
	if now := p.now(); now >= t {
		return now
	}
	p.mu.Lock()
	heap.Push(&p.waiters, waiter{t, c.wake})
	if p.armed == 0 || t < p.armed {
		p.arm(t)
	}
	p.mu.Unlock()
	<-c.wake
	return p.now()
}
