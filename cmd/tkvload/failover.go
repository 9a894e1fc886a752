package main

// The failover scenario (-scenario failover) is the kill-and-recover drill
// for tkvd replication: load a primary that streams to a follower, quit the
// primary mid-load, promote the follower, redirect the load, and judge every
// ack on the promoted follower. A lost one is named as acked before the quit
// or after the promote. Requests the fenced primary bounces as not-primary,
// or that die with its connections, count nothing and retry. Each server's
// wire address comes from its /healthz.

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// runFailover runs the drill on the tkvds whose control URLs are primary
// and follower, each load phase load.dur long.
func runFailover(primary, follower string, load loadConfig, out io.Writer) error {
	pwire, err := wireAddr(primary)
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	fwire, err := wireAddr(follower)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	d := newDriver(load, pwire, "before quit", "after promote")
	if err := d.seed(); err != nil {
		return err
	}

	d.run()
	d.measure()
	defer d.stop()
	time.Sleep(load.dur)
	preQuit := d.acks.acked.Load()
	fmt.Fprintf(out, "failover: %d increments acked; quitting the primary\n", preQuit)
	if code := post(primary + "/quit"); code != http.StatusOK {
		return fmt.Errorf("POST /quit = %d", code)
	}
	// The primary drains its replication stream before its listeners
	// close, so "the primary is gone" implies "the follower has (or is
	// receiving) everything acknowledged".
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := wireAddr(primary); err != nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("primary still serving %v after /quit", 15*time.Second)
		}
	}
	if code := post(follower + "/promote"); code != http.StatusOK {
		return fmt.Errorf("POST /promote = %d", code)
	}
	// The phase moves first: an op on a connection to the follower is
	// never counted before the promote.
	d.acks.phase.Add(1)
	d.target.Store(&fwire)
	fmt.Fprintf(out, "failover: follower promoted; load redirected\n")
	time.Sleep(load.dur)
	d.stop()
	return drillVerdict(d, "failover", fmt.Sprintf("pre-quit=%d", preQuit), out)
}
