package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// daemon is one in-process tkvd instance driven through run().
type daemon struct {
	out   bytes.Buffer
	stop  chan struct{}
	done  chan error
	addr  string // HTTP
	wire  string // binary protocol
	ended bool
}

func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	d := &daemon{stop: make(chan struct{}), done: make(chan error, 1)}
	ready := make(chan string, 2)
	args := append([]string{"-addr", "127.0.0.1:0", "-tcpaddr", "127.0.0.1:0",
		"-shards", "2", "-pool", "2", "-buckets", "128"}, extra...)
	go func() { d.done <- run(args, &d.out, ready, d.stop) }()
	for i, dst := range []*string{&d.addr, &d.wire} {
		select {
		case *dst = <-ready:
		case err := <-d.done:
			t.Fatalf("daemon exited before ready (%d): %v\n%s", i, err, d.out.String())
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
	}
	t.Cleanup(func() { d.shutdown(t) })
	return d
}

func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	if d.ended {
		return
	}
	d.ended = true
	close(d.stop)
	select {
	case err := <-d.done:
		if err != nil {
			t.Errorf("shutdown: %v\n%s", err, d.out.String())
		}
	case <-time.After(15 * time.Second):
		t.Error("daemon never shut down")
	}
}

func httpPut(t *testing.T, base string, key int, val string) int {
	t.Helper()
	req, err := http.NewRequest("PUT", fmt.Sprintf("%s/kv/%d", base, key),
		strings.NewReader(fmt.Sprintf(`{"value":%q}`, val)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func httpGet(t *testing.T, base string, key int) (string, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/kv/%d", base, key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Value string `json:"value"`
	}
	json.NewDecoder(resp.Body).Decode(&got)
	return got.Value, resp.StatusCode
}

func httpPost(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPrimaryFollowerFailover is the full daemon-level drill: a primary
// and a follower, writes landing on the primary and appearing on the
// follower, follower writes bouncing 421, graceful primary shutdown, and
// a promote that turns the follower into a writable primary holding every
// acknowledged write.
func TestPrimaryFollowerFailover(t *testing.T) {
	primary := startDaemon(t)
	follower := startDaemon(t, "-role", "follower", "-follow", primary.wire)

	pbase, fbase := "http://"+primary.addr, "http://"+follower.addr

	for i := 0; i < 50; i++ {
		if code := httpPut(t, pbase, i, fmt.Sprintf("v%d", i)); code != 200 {
			t.Fatalf("primary put %d = %d", i, code)
		}
	}

	// Follower writes bounce with 421 Misdirected Request.
	if code := httpPut(t, fbase, 999, "nope"); code != http.StatusMisdirectedRequest {
		t.Fatalf("follower put = %d, want 421", code)
	}

	// Follower reads converge to the primary's state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, code := httpGet(t, fbase, 49)
		if code == 200 && v == "v49" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: key 49 = %q (%d)", v, code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /stats on the follower names its role.
	resp, err := http.Get(fbase + "/stats?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Repl *struct {
			Role string `json:"role"`
		} `json:"repl"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Repl == nil || stats.Repl.Role != "follower" {
		t.Fatalf("follower /stats repl = %+v", stats.Repl)
	}

	// Graceful failover: quit the primary (drains the stream), promote
	// the follower, and verify every acknowledged write survived.
	if code := httpPost(t, pbase+"/quit"); code != 200 {
		t.Fatalf("quit = %d", code)
	}
	select {
	case err := <-primary.done:
		primary.ended = true
		if err != nil {
			t.Fatalf("primary shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("primary never exited after /quit")
	}
	if code := httpPost(t, fbase+"/promote"); code != 200 {
		t.Fatalf("promote = %d", code)
	}
	for i := 0; i < 50; i++ {
		if v, code := httpGet(t, fbase, i); code != 200 || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("lost write: key %d = %q (%d) after failover", i, v, code)
		}
	}
	// The promoted follower serves writes.
	if code := httpPut(t, fbase, 1000, "after-failover"); code != 200 {
		t.Fatalf("promoted put = %d", code)
	}
	// The promote line says what was taken over: the stream was read to the
	// primary's fence, so nothing (two shards, no gap).
	if !strings.Contains(follower.out.String(), "promoted to primary fenced=true gap=[0 0]") {
		t.Fatalf("missing promote log:\n%s", follower.out.String())
	}
}

func TestRunRejectsBadReplFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-role", "follower", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("follower without -follow accepted")
	}
	if err := run([]string{"-role", "follower", "-follow", "x", "-replring", "0",
		"-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("follower without a ring accepted")
	}
	if err := run([]string{"-role", "bogus", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("bogus role accepted")
	}
	if err := run([]string{"-follow", "somewhere", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("-follow on a primary accepted")
	}
}
