package main

// The crash scenario (-scenario crash) is the kill -9 drill for tkvd
// durability: load a WAL-backed server, SIGKILL it mid-load — no drain, no
// flush, exactly what a power cut leaves behind — restart it over the same
// log directory, and judge every ack. A lost one is an acked update the WAL
// dropped, named with the kill it was acked before or after; requests that
// die with a process count nothing and retry against the next incarnation.

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
)

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

// runCrash runs the drill on the tkvd binary bin over the log directory
// waldir, each load phase load.dur long.
func runCrash(bin, waldir string, kills int, load loadConfig, out io.Writer) error {
	// Every incarnation binds the same two addresses, so the load never
	// re-targets.
	addrs, err := freeAddrs(2)
	if err != nil {
		return err
	}
	url, wire := "http://"+addrs[0], addrs[1]
	start := func() (*tkvdProc, error) {
		return startTkvd(bin, addrs[0], "-tcpaddr", wire, "-replring", "0",
			"-shards", "4", "-wal", waldir)
	}

	proc, err := start()
	if err != nil {
		return err
	}
	defer func() { // unless the last incarnation quit cleanly
		if proc != nil {
			proc.cmd.Process.Kill()
			proc.cmd.Wait()
		}
	}()
	phases := []string{"before kill 1"}
	for round := 1; round <= kills; round++ {
		phases = append(phases, fmt.Sprintf("after kill %d", round))
	}
	d := newDriver(load, wire, phases...)
	if err := d.seed(); err != nil {
		return err
	}

	d.run()
	d.measure()
	defer d.stop()
	for round := 1; round <= kills; round++ {
		time.Sleep(load.dur)
		fmt.Fprintf(out, "crash: round %d: %d increments acked; SIGKILL\n", round, d.acks.acked.Load())
		if err := proc.cmd.Process.Kill(); err != nil {
			return fmt.Errorf("kill: %w", err)
		}
		proc.cmd.Wait()
		d.acks.phase.Add(1)
		if proc, err = start(); err != nil {
			return fmt.Errorf("restart after kill %d: %w", round, err)
		}
		line := recoveredLine(proc.out.String())
		if line == "" {
			return fmt.Errorf("restarted tkvd printed no wal recovery line:\n%s", proc.out.String())
		}
		fmt.Fprintf(out, "crash: restarted; %s\n", line)
	}
	time.Sleep(load.dur) // one more load phase on the final incarnation
	d.stop()
	err = drillVerdict(d, "crash", fmt.Sprintf("kills=%d", kills), out)
	if code := post(url + "/quit"); code == http.StatusOK {
		proc.cmd.Wait()
		proc = nil
	}
	return err
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
