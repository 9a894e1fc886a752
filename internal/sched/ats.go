package sched

import (
	"sync"

	"github.com/shrink-tm/shrink/internal/stm"
)

// ATS implements Yoo and Lee's adaptive transaction scheduling, the
// representative of the coarse serialization schemes the paper compares
// against (CAR-STM, Steal-on-abort). Each thread maintains a contention
// intensity CI, updated as CI = alpha*CI on commit and CI = alpha*CI +
// (1-alpha) on abort. When CI exceeds the threshold, the thread's
// transactions go through a global FIFO queue and execute one after another.
type ATS struct {
	// Alpha is the exponential-smoothing weight (default 0.75).
	Alpha float64
	// Threshold is the contention intensity above which a thread
	// serializes (default 0.5).
	Threshold float64

	q fifoMutex
}

type atsThread struct {
	ci      float64
	inQueue bool
}

var _ stm.Scheduler = (*ATS)(nil)

// NewATS returns an ATS scheduler with the canonical parameters
// (alpha = 0.75, threshold = 0.5).
func NewATS() *ATS { return &ATS{Alpha: 0.75, Threshold: 0.5} }

// RegisterThread implements stm.Scheduler.
func (a *ATS) RegisterThread(t *stm.ThreadCtx) { t.SchedState = &atsThread{} }

func (a *ATS) state(t *stm.ThreadCtx) *atsThread {
	st, _ := t.SchedState.(*atsThread)
	return st
}

// BeforeStart implements stm.Scheduler: threads whose contention intensity
// exceeds the threshold enqueue on the global FIFO and run serialized.
func (a *ATS) BeforeStart(t *stm.ThreadCtx, attempt int) {
	st := a.state(t)
	if st == nil {
		return
	}
	if st.inQueue {
		return
	}
	if st.ci > a.Threshold {
		a.q.Lock()
		st.inQueue = true
		t.Serializations.Add(1)
	}
}

// AfterRead implements stm.Scheduler.
func (a *ATS) AfterRead(*stm.ThreadCtx, *stm.Var) {}

// AfterCommit implements stm.Scheduler.
func (a *ATS) AfterCommit(t *stm.ThreadCtx, _ stm.WriteSet) {
	st := a.state(t)
	if st == nil {
		return
	}
	st.ci = a.Alpha * st.ci
	a.dequeue(st)
}

// AfterAbort implements stm.Scheduler. A queued transaction stays in the
// queue (keeps the FIFO lock) across its retries: ATS schedules queued
// transactions one after another until each commits.
func (a *ATS) AfterAbort(t *stm.ThreadCtx, _ stm.WriteSet) {
	st := a.state(t)
	if st == nil {
		return
	}
	st.ci = a.Alpha*st.ci + (1 - a.Alpha)
}

func (a *ATS) dequeue(st *atsThread) {
	if st.inQueue {
		st.inQueue = false
		a.q.Unlock()
	}
}

// Pool is the simple scheduler the paper built to study the serialization
// trade-off: it serializes every thread that faces contention, i.e. every
// transaction whose previous attempt aborted runs behind the global FIFO.
type Pool struct {
	q fifoMutex
}

type poolThread struct {
	lastAborted bool
	inQueue     bool
}

var _ stm.Scheduler = (*Pool)(nil)

// NewPool returns a Pool scheduler.
func NewPool() *Pool { return &Pool{} }

// RegisterThread implements stm.Scheduler.
func (p *Pool) RegisterThread(t *stm.ThreadCtx) { t.SchedState = &poolThread{} }

func (p *Pool) state(t *stm.ThreadCtx) *poolThread {
	st, _ := t.SchedState.(*poolThread)
	return st
}

// BeforeStart implements stm.Scheduler.
func (p *Pool) BeforeStart(t *stm.ThreadCtx, attempt int) {
	st := p.state(t)
	if st == nil || st.inQueue {
		return
	}
	if st.lastAborted {
		p.q.Lock()
		st.inQueue = true
		t.Serializations.Add(1)
	}
}

// AfterRead implements stm.Scheduler.
func (p *Pool) AfterRead(*stm.ThreadCtx, *stm.Var) {}

// AfterCommit implements stm.Scheduler.
func (p *Pool) AfterCommit(t *stm.ThreadCtx, _ stm.WriteSet) {
	st := p.state(t)
	if st == nil {
		return
	}
	st.lastAborted = false
	if st.inQueue {
		st.inQueue = false
		p.q.Unlock()
	}
}

// AfterAbort implements stm.Scheduler.
func (p *Pool) AfterAbort(t *stm.ThreadCtx, _ stm.WriteSet) {
	st := p.state(t)
	if st == nil {
		return
	}
	st.lastAborted = true
	if st.inQueue {
		st.inQueue = false
		p.q.Unlock()
	}
}

// fifoMutex is a strictly first-in-first-out mutual exclusion lock. ATS's
// queue semantics ("the transactions in Q are scheduled one after another")
// need FIFO ordering, which sync.Mutex does not guarantee.
type fifoMutex struct {
	mu     sync.Mutex
	locked bool
	queue  []chan struct{}
}

// Lock acquires the lock, queueing in arrival order.
func (f *fifoMutex) Lock() {
	f.mu.Lock()
	if !f.locked {
		f.locked = true
		f.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	f.queue = append(f.queue, ch)
	f.mu.Unlock()
	<-ch
}

// Unlock releases the lock, waking the longest-waiting locker.
func (f *fifoMutex) Unlock() {
	f.mu.Lock()
	if len(f.queue) > 0 {
		ch := f.queue[0]
		f.queue = f.queue[1:]
		f.mu.Unlock()
		close(ch)
		return
	}
	f.locked = false
	f.mu.Unlock()
}
