package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// clock is the pacer's view of time, in nanoseconds since the run began.
// waitUntil returns the time at which the wait ended, which is at or
// after t (immediately, when t has already passed). Tests drive the pacer
// with a fake.
type clock interface {
	now() int64
	waitUntil(t int64) int64
}

// spinClock waits by spinning on the monotonic clock, yielding the
// processor while the due time is far off. Callers that have a processor
// to themselves use it: a runtime timer wakes an idle process a millisecond
// late, three orders of magnitude more than the operations being timed.
// Callers that share processors must not (sixteen spinning goroutines keep
// the scheduler from ever polling the network); they wait on fdPacer.
type spinClock struct{ base time.Time }

// spinYieldAbove is how far from the due time a spinning caller still
// yields; closer than this it spins tight, because a yield costs ~150 ns.
const spinYieldAbove = 5 * time.Microsecond

func (c spinClock) now() int64 { return int64(time.Since(c.base)) }

func (c spinClock) waitUntil(t int64) int64 {
	for {
		now := c.now()
		if now >= t {
			return now
		}
		if t-now > int64(spinYieldAbove) {
			runtime.Gosched()
		}
	}
}

// schedule is one caller's fixed send plan: op i is due at start +
// i*interval, whatever happened to the ops before it.
type schedule struct{ start, interval int64 }

func (s schedule) due(i int) int64 { return s.start + int64(i)*s.interval }

// callerSchedules splits a total rate over n callers: each gets the same
// interval, staggered so the merged stream is evenly spaced. n ops are due
// per caller within dur.
func callerSchedules(start int64, rate float64, callers int, dur time.Duration) (s []schedule, opsEach int) {
	interval := int64(float64(callers) / rate * 1e9)
	s = make([]schedule, callers)
	for i := range s {
		s[i] = schedule{start + int64(i)*interval/int64(callers), interval}
	}
	return s, int(int64(dur) / interval)
}

// failedLatency is what a failed or refused op is charged: the largest
// value a sample holds, so it is over any latency limit.
const failedLatency = math.MaxUint32

// pacedResult is what one caller's open-loop phase measured: two raw
// samples per op, in nanoseconds, in schedule order.
type pacedResult struct {
	lat    []uint32 // completion minus due time
	late   []uint32 // the generator's own lateness: send minus the moment the op was due and its caller free
	failed int
	end    int64 // completion time of the last op
}

func sample(ns int64) uint32 { return uint32(min(max(ns, 0), failedLatency-1)) }

// runPaced issues n ops on schedule s. Latency is taken from the due
// time, not the send time, so a stall is charged to every op it delays.
//
// A caller has one op outstanding, so an op that is due while the last one
// is still running goes out the moment that one returns; the wait shows in
// its latency. Lateness is only what the generator itself adds on top: how
// long after the op was due and the caller free it actually went out.
func runPaced(clk clock, s schedule, n int, do func(i int) bool, res *pacedResult) {
	res.lat, res.late = make([]uint32, n), make([]uint32, n)
	for i := 0; i < n; i++ {
		due := s.due(i)
		free := max(due, res.end)
		sent := clk.waitUntil(due)
		ok := do(i)
		res.end = clk.now()
		res.late[i] = sample(sent - free)
		res.lat[i] = sample(res.end - due)
		if !ok {
			res.failed++
			res.lat[i] = failedLatency
		}
	}
}

// closedResult is one caller's closed-loop phase: how many of its ops had
// succeeded at each window boundary. An op that fails or is refused is
// counted in failed and in no window.
type closedResult struct {
	marks  []int64
	issued int64
	failed int64
}

// runClosed issues ops back to back until the last window boundary has
// passed, noting the count of successful ops as each boundary (bounds[0]
// is the start) goes by. The clock is read every checkEvery ops.
func runClosed(clk clock, bounds []int64, checkEvery int, do func(i int) bool, res *closedResult) {
	res.marks = make([]int64, 0, len(bounds))
	clk.waitUntil(bounds[0])
	next := 0
	for i := 0; ; i++ {
		if i%checkEvery == 0 {
			now := clk.now()
			for next < len(bounds) && now >= bounds[next] {
				res.marks = append(res.marks, res.issued-res.failed)
				next++
			}
			if next == len(bounds) {
				return
			}
		}
		res.issued++
		if !do(i) {
			res.failed++
		}
	}
}

// windowRates turns the callers' boundary marks into successful ops/s per
// window.
func windowRates(results []closedResult, window time.Duration) []float64 {
	rates := make([]float64, len(results[0].marks)-1)
	for w := range rates {
		var ops int64
		for _, r := range results {
			ops += r.marks[w+1] - r.marks[w]
		}
		rates[w] = float64(ops) / window.Seconds()
	}
	return rates
}

// forEachCaller runs fn(i) on n goroutines and waits for all of them.
func forEachCaller(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
