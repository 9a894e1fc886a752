package main

// The crash scenario (-scenario crash) is the kill -9 drill for tkvd
// durability: load a WAL-backed server with acknowledged increments,
// SIGKILL the process mid-load — no drain, no flush, exactly what a
// power cut leaves behind — restart it over the same log directory, and
// verify that not one acknowledged increment was lost.
//
// Workers perform server-side add increments and tally only
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
	"sync/atomic"
	"time"
)

type crashSpec struct {
	tkvd    string // path to the tkvd binary
	waldir  string // WAL directory carried across incarnations
	walmode string // WAL layout under test: shared or pershard
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

// startTkvd launches the binary serving HTTP on addr with the given further
// flags and waits until /stats answers.
func startTkvd(bin, addr string, client *http.Client, args ...string) (*tkvdProc, error) {
	p := &tkvdProc{cmd: exec.Command(bin, append([]string{"-addr", addr}, args...)...)}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.cmd.Process.Kill()
			p.cmd.Wait()
			return nil, fmt.Errorf("tkvd never became ready on %s:\n%s", addr, p.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// freeAddr reserves a loopback port and frees it again for a server to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func runCrash(sp crashSpec, out io.Writer) error {
	// Every incarnation binds the same address, so the load workers never
	// re-target.
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	client := newHTTPClient(sp.workers, 10*time.Second)
	defer client.CloseIdleConnections()
	kv := &httpKV{base: "http://" + addr, client: client}
	start := func() (*tkvdProc, error) {
		return startTkvd(sp.tkvd, addr, client, "-tcpaddr", "", "-replring", "0",
			"-shards", "4", "-wal", sp.waldir, "-walmode", sp.walmode)
	}

	proc, err := start()
	if err != nil {
		return err
	}
	for k := 0; k < sp.keys; k++ {
		if err := kv.put(uint64(k), "0"); err != nil {
			proc.cmd.Process.Kill()
			proc.cmd.Wait()
			return fmt.Errorf("seeding counter %d: %w", k, err)
		}
	}

	var acked, failed atomic.Uint64
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
				if err := kv.add(key, 1); err == nil {
					acked.Add(1)
				} else {
					failed.Add(1)
					// The process is dead or restarting; back off and retry.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}

	fail := func(err error) error {
		close(stop)
		wg.Wait()
		if proc != nil {
			proc.cmd.Process.Kill()
			proc.cmd.Wait()
		}
		return err
	}
	for round := 1; round <= sp.kills; round++ {
		time.Sleep(sp.phase)
		pre := acked.Load()
		fmt.Fprintf(out, "crash: round %d: %d increments acked; SIGKILL\n", round, pre)
		if err := proc.cmd.Process.Kill(); err != nil {
			return fail(fmt.Errorf("kill: %w", err))
		}
		proc.cmd.Wait()
		proc, err = start()
		if err != nil {
			proc = nil
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
	close(stop)
	wg.Wait()

	snap, err := kv.snapshot()
	if err != nil {
		return fmt.Errorf("verification snapshot: %w", err)
	}
	sum := uint64(0)
	for k := 0; k < sp.keys; k++ {
		var n uint64
		fmt.Sscanf(snap[uint64(k)], "%d", &n)
		sum += n
	}
	total := acked.Load()
	fmt.Fprintf(out, "crash: acked=%d counter-sum=%d retried-errors=%d kills=%d\n",
		total, sum, failed.Load(), sp.kills)

	if code := post(client, kv.base+"/quit"); code != http.StatusOK {
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
