package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestFailoverScenario runs the full drill through the same entry point the
// CLI uses, against two real tkvd processes — a primary and a follower
// streaming from it — so the fence-drain-close order behind /quit and the
// drain behind /promote are the server's own. It requires the zero-loss
// verdict and the follower's account of what it took over.
func TestFailoverScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	bin := buildTkvd(t)
	var addrs [4]string // primary http, primary wire, follower http, follower wire
	for i := range addrs {
		var err error
		if addrs[i], err = freeAddr(); err != nil {
			t.Fatal(err)
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	start := func(addr string, args ...string) *tkvdProc {
		t.Helper()
		p, err := startTkvd(bin, addr, client, append([]string{"-shards", "2", "-pool", "2", "-buckets", "128"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { // no-ops once the process has been waited for
			p.cmd.Process.Kill()
			p.cmd.Wait()
		})
		return p
	}
	primary := start(addrs[0], "-tcpaddr", addrs[1])
	follower := start(addrs[2], "-tcpaddr", addrs[3], "-role", "follower", "-follow", addrs[1])
	pkv := &httpKV{base: "http://" + addrs[0], client: client}
	fkv := &httpKV{base: "http://" + addrs[2], client: client}
	// The drill only means something with the follower attached: fencing a
	// primary nobody follows strands the fence.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, err := pkv.stats(); err == nil && st.Repl != nil && st.Repl.Followers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the primary")
		}
	}

	var out bytes.Buffer
	err := run([]string{
		"-scenario", "failover",
		"-url", "http://" + addrs[0],
		"-url2", "http://" + addrs[2],
		"-keys", "32",
		"-conns", "4",
		"-dur", "300ms",
	}, &out)
	t.Log("\n" + out.String())
	if err != nil {
		t.Fatalf("failover scenario: %v", err)
	}
	if !strings.Contains(out.String(), "PASS — zero lost acknowledged updates") {
		t.Fatal("missing pass verdict")
	}
	if !strings.Contains(out.String(), "follower promoted") {
		t.Fatal("missing promote line")
	}
	if err := primary.cmd.Wait(); err != nil {
		t.Errorf("the primary's exit after /quit: %v\n%s", err, primary.out.String())
	}

	// The promoted follower is a writable primary, and said what it took.
	if st, err := fkv.stats(); err != nil || st.Repl == nil || st.Repl.Role != "primary" {
		t.Errorf("follower not promoted: %+v, %v", st.Repl, err)
	}
	if code := post(client, fkv.base+"/quit"); code != http.StatusOK {
		t.Fatalf("POST /quit on the follower = %d", code)
	}
	if err := follower.cmd.Wait(); err != nil {
		t.Errorf("the follower's exit after /quit: %v\n%s", err, follower.out.String())
	}
	if !strings.Contains(follower.out.String(), "promoted to primary fenced=true gap=[0 0]") {
		t.Errorf("the follower did not read the stream to its fence:\n%s", follower.out.String())
	}
}

func TestFailoverScenarioFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "failover", "-url", "http://127.0.0.1:1"}, &out); err == nil {
		t.Fatal("failover without -url2 accepted")
	}
	if err := run([]string{"-scenario", "bogus", "-url", "http://127.0.0.1:1"}, &out); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}
