package main

// The failover scenario (-scenario failover) is the kill-and-recover
// drill for tkvd replication: load a primary that is streaming to a
// follower, quit the primary mid-load, promote the follower, redirect
// the load, and verify that not one acknowledged increment was lost.
//
// Workers perform server-side add increments (each a committed
// transaction) over the wire against whichever server is currently
// primary and tally only acknowledged successes. Failed requests — writes
// the fenced primary bounces as not-primary during the drain window, dead
// connections during the switch — simply retry and count nothing. Each
// server's wire address comes from its /healthz; HTTP carries only /quit,
// /promote and that readiness probe. At the
// end the counter sum on the promoted follower must be at least the
// acked tally: a shortfall is a lost acknowledged write and fails the
// run. A small surplus is tolerated with a warning (an increment can
// commit and then lose its ack to the dying connection; that is an
// unacknowledged success, not a loss).

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvwire"
)

type failoverSpec struct {
	primary  string // primary control URL (its wire port takes the load first; gets /quit)
	follower string // follower control URL (gets /promote; its wire port is verified at the end)
	keys     int    // counter keys, seeded on the primary
	workers  int
	phase    time.Duration // load duration before the kill and after the promote
}

func runFailover(sp failoverSpec, out io.Writer) error {
	pwire, err := wireAddr(sp.primary)
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	fwire, err := wireAddr(sp.follower)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	c, err := tkvwire.Dial(pwire)
	if err == nil {
		err = seedCounters(c, sp.keys)
		c.Close()
	}
	if err != nil {
		return err
	}

	load := startIncrements(pwire, sp.keys, sp.workers)
	time.Sleep(sp.phase)
	preKill := load.acked.Load()
	fmt.Fprintf(out, "failover: %d increments acked; quitting the primary\n", preKill)
	if code := post(sp.primary + "/quit"); code != http.StatusOK {
		load.halt()
		return fmt.Errorf("POST /quit = %d", code)
	}
	// The primary drains its replication stream before its listeners
	// close, so "the primary is gone" implies "the follower has (or is
	// receiving) everything acknowledged".
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := wireAddr(sp.primary); err != nil {
			break
		}
		if time.Now().After(deadline) {
			load.halt()
			return fmt.Errorf("primary still serving %v after /quit", 15*time.Second)
		}
	}
	if code := post(sp.follower + "/promote"); code != http.StatusOK {
		load.halt()
		return fmt.Errorf("POST /promote = %d", code)
	}
	load.retarget(fwire)
	fmt.Fprintf(out, "failover: follower promoted; load redirected\n")

	time.Sleep(sp.phase)
	load.halt()

	var sum uint64
	if c, err = tkvwire.Dial(fwire); err == nil {
		sum, err = counterSum(c, sp.keys)
		c.Close()
	}
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	total := load.acked.Load()
	fmt.Fprintf(out, "failover: acked=%d (pre-kill %d, post-promote %d) counter-sum=%d retried-errors=%d\n",
		total, preKill, total-preKill, sum, load.failed.Load())
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
