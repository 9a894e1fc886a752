package main

// The crash scenario (-scenario crash) is the kill -9 drill for tkvd
// durability: load a WAL-backed server with acknowledged increments,
// SIGKILL the process mid-load — no drain, no flush, exactly what a
// power cut leaves behind — restart it over the same log directory, and
// verify that not one acknowledged increment was lost.
//
// Workers perform server-side add increments over the wire and tally only
// acknowledged successes; requests that die with the process retry
// against the next incarnation and count nothing. After the configured
// number of kill/restart rounds the counter sum must be at least the
// acked tally. A surplus is tolerated with a note (an increment can be
// fsync-durable and then lose its ack to the dying socket; that is an
// unacknowledged success, not a loss) — a shortfall is an acked update
// the WAL dropped, the exact bug class this drill exists to catch.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkvwire"
)

type crashSpec struct {
	tkvd    string // path to the tkvd binary
	waldir  string // WAL directory carried across incarnations
	keys    int    // counter keys, seeded once
	workers int
	phase   time.Duration // load duration before each kill (and before the verify)
	kills   int           // SIGKILL rounds
}

// tkvdProc is one incarnation of the server under test.
type tkvdProc struct {
	cmd *exec.Cmd
	out procOutput // combined stdout+stderr
}

// procOutput collects a child's output. The recovery line is read while the
// child is running and os/exec is still copying into the buffer, hence the
// lock.
type procOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *procOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *procOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// startTkvd launches the binary with its control surface on addr and the
// given further flags, and waits until /healthz answers.
func startTkvd(bin, addr string, args ...string) (*tkvdProc, error) {
	p := &tkvdProc{cmd: exec.Command(bin, append([]string{"-addr", addr}, args...)...)}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := wireAddr("http://" + addr); err == nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.cmd.Process.Kill()
			p.cmd.Wait()
			return nil, fmt.Errorf("tkvd never became ready on %s:\n%s", addr, p.out.String())
		}
	}
}

// freeAddrs reserves n distinct loopback ports and frees them again for
// servers to bind.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func runCrash(sp crashSpec, out io.Writer) error {
	// Every incarnation binds the same two addresses, so the load workers
	// never re-target.
	addrs, err := freeAddrs(2)
	if err != nil {
		return err
	}
	url, wire := "http://"+addrs[0], addrs[1]
	start := func() (*tkvdProc, error) {
		return startTkvd(sp.tkvd, addrs[0], "-tcpaddr", wire, "-replring", "0",
			"-shards", "4", "-wal", sp.waldir)
	}

	proc, err := start()
	if err != nil {
		return err
	}
	kill := func() {
		proc.cmd.Process.Kill()
		proc.cmd.Wait()
	}
	c, err := tkvwire.Dial(wire)
	if err == nil {
		err = seedCounters(c, sp.keys)
		c.Close()
	}
	if err != nil {
		kill()
		return err
	}

	load := startIncrements(wire, sp.keys, sp.workers)
	fail := func(err error) error {
		load.halt()
		if proc != nil {
			kill()
		}
		return err
	}
	for round := 1; round <= sp.kills; round++ {
		time.Sleep(sp.phase)
		fmt.Fprintf(out, "crash: round %d: %d increments acked; SIGKILL\n", round, load.acked.Load())
		if err := proc.cmd.Process.Kill(); err != nil {
			return fail(fmt.Errorf("kill: %w", err))
		}
		proc.cmd.Wait()
		if proc, err = start(); err != nil {
			return fail(fmt.Errorf("restart after kill %d: %w", round, err))
		}
		line := recoveredLine(proc.out.String())
		if line == "" {
			return fail(fmt.Errorf("restarted tkvd printed no wal recovery line:\n%s", proc.out.String()))
		}
		fmt.Fprintf(out, "crash: restarted; %s\n", line)
	}

	// One more load phase on the final incarnation, then verify.
	time.Sleep(sp.phase)
	load.halt()
	var sum uint64
	if c, err = tkvwire.Dial(wire); err == nil {
		sum, err = counterSum(c, sp.keys)
		c.Close()
	}
	if err != nil {
		kill()
		return fmt.Errorf("verification: %w", err)
	}
	total := load.acked.Load()
	fmt.Fprintf(out, "crash: acked=%d counter-sum=%d retried-errors=%d kills=%d\n",
		total, sum, load.failed.Load(), sp.kills)

	if code := post(url + "/quit"); code != http.StatusOK {
		proc.cmd.Process.Kill()
	}
	proc.cmd.Wait()

	if sum < total {
		return fmt.Errorf("LOST UPDATES: %d increments acknowledged, counters sum to %d (%d lost)",
			total, sum, total-sum)
	}
	if sum > total {
		fmt.Fprintf(out, "crash: %d unacknowledged increments landed (durable, ack lost to the dying process) — not a loss\n",
			sum-total)
	}
	fmt.Fprintf(out, "crash: PASS — zero lost acknowledged updates\n")
	return nil
}

// recoveredLine extracts the server's WAL recovery boot line.
func recoveredLine(s string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "wal") && strings.Contains(line, "recovered") {
			return strings.TrimSpace(line)
		}
	}
	return ""
}
