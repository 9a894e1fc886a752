package main

// The failover scenario (-scenario failover) is the kill-and-recover
// drill for tkvd replication: load a primary that is streaming to a
// follower, quit the primary mid-load, promote the follower, redirect
// the load, and verify that not one acknowledged increment was lost.
//
// Workers perform server-side add increments (each a committed
// transaction) against whichever server is currently primary and tally
// only acknowledged successes. Failed requests — fenced writes during
// the drain window, dead connections during the switch, 421s from the
// not-yet-promoted follower — simply retry and count nothing. At the
// end the counter sum on the promoted follower must be at least the
// acked tally: a shortfall is a lost acknowledged write and fails the
// run. A small surplus is tolerated with a warning (an increment can
// commit and then lose its ack to the dying connection; that is an
// unacknowledged success, not a loss).

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

type failoverSpec struct {
	primary  string // primary base URL (load starts here; gets /quit)
	follower string // follower base URL (gets /promote; verified at the end)
	keys     int    // counter keys, seeded on the primary
	workers  int
	phase    time.Duration // load duration before the kill and after the promote
}

func runFailover(sp failoverSpec, out io.Writer) error {
	client := newHTTPClient(sp.workers, 10*time.Second)
	defer client.CloseIdleConnections()
	primary := &httpKV{base: sp.primary, client: client}
	follower := &httpKV{base: sp.follower, client: client}

	for k := 0; k < sp.keys; k++ {
		if err := primary.put(uint64(k), "0"); err != nil {
			return fmt.Errorf("seeding counter %d: %w", k, err)
		}
	}

	var target atomic.Pointer[httpKV]
	target.Store(primary)
	var acked atomic.Uint64
	var failed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < sp.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64((w*7919 + i) % sp.keys)
				if err := target.Load().add(key, 1); err == nil {
					acked.Add(1)
				} else {
					failed.Add(1)
					// The switch window: fenced primary, dead sockets,
					// not-yet-promoted follower. Back off and retry.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}

	time.Sleep(sp.phase)
	preKill := acked.Load()
	fmt.Fprintf(out, "failover: %d increments acked; quitting the primary\n", preKill)
	if code := post(client, sp.primary+"/quit"); code != http.StatusOK {
		close(stop)
		wg.Wait()
		return fmt.Errorf("POST /quit = %d", code)
	}
	// The primary drains its replication stream before its listeners
	// close, so "the primary is gone" implies "the follower has (or is
	// receiving) everything acknowledged".
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := primary.stats(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			return fmt.Errorf("primary still serving %v after /quit", 15*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := post(client, sp.follower+"/promote"); code != http.StatusOK {
		close(stop)
		wg.Wait()
		return fmt.Errorf("POST /promote = %d", code)
	}
	target.Store(follower)
	fmt.Fprintf(out, "failover: follower promoted; load redirected\n")

	time.Sleep(sp.phase)
	close(stop)
	wg.Wait()

	sum := uint64(0)
	snap, err := follower.snapshot()
	if err != nil {
		return fmt.Errorf("verification snapshot: %w", err)
	}
	for k := 0; k < sp.keys; k++ {
		var n uint64
		fmt.Sscanf(snap[uint64(k)], "%d", &n)
		sum += n
	}
	total := acked.Load()
	fmt.Fprintf(out, "failover: acked=%d (pre-kill %d, post-promote %d) counter-sum=%d retried-errors=%d\n",
		total, preKill, total-preKill, sum, failed.Load())
	if sum < total {
		return fmt.Errorf("LOST UPDATES: %d increments acknowledged, counters sum to %d (%d lost)",
			total, sum, total-sum)
	}
	if sum > total {
		fmt.Fprintf(out, "failover: %d unacknowledged increments landed (committed, ack lost to the dying connection) — not a loss\n",
			sum-total)
	}
	fmt.Fprintf(out, "failover: PASS — zero lost acknowledged updates\n")
	return nil
}

// post issues an empty POST and returns the status code (0 on transport
// error).
func post(client *http.Client, url string) int {
	resp, err := client.Post(url, "", nil)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
