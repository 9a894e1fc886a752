package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

func TestServeAndShutdown(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 2)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-tcpaddr", "127.0.0.1:0",
			"-shards", "2", "-pool", "2"}, &out, ready, stop)
	}()
	var addr, tcpAddr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	select {
	case tcpAddr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("wire server never became ready")
	}
	base := "http://" + addr

	// The wire port is the data surface.
	wc, err := tkvwire.Dial(tcpAddr)
	if err != nil {
		t.Fatalf("wire dial: %v", err)
	}
	defer wc.Close()
	if _, err := wc.Put(5, "hello"); err != nil {
		t.Fatalf("wire put: %v", err)
	}
	if val, found, err := wc.Get(5); err != nil || !found || val != "hello" {
		t.Fatalf("wire get: %q %v %v", val, found, err)
	}

	// HTTP is the operator's: /healthz names the wire address, /stats
	// renders JSON and text, and no data verb is served.
	var health struct {
		Status, Wire string
	}
	if code := getJSON(t, base+"/healthz", &health); code != 200 || health.Status != "ok" || health.Wire != tcpAddr {
		t.Fatalf("healthz = %d %+v, want ok and wire %s", code, health, tcpAddr)
	}
	var stats tkv.Stats
	if code := getJSON(t, base+"/stats", &stats); code != 200 || stats.Commits == 0 || stats.Ops.Puts != 1 || stats.Ops.Gets != 1 {
		t.Fatalf("stats = %d %+v", code, stats)
	}
	resp, err := http.Get(base + "/stats?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "tkv per-shard statistics") || !strings.Contains(string(text), "totals:") {
		t.Fatalf("text stats:\n%s", text)
	}
	if code := getJSON(t, base+"/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("GET /snapshot = %d, want 404", code)
	}
	if code := getJSON(t, base+"/quit", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /quit = %d, want 405", code)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing shutdown stats:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sched", "bogus", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
	if err := run([]string{"-wait", "bogus"}, &out, nil, nil); err == nil {
		t.Fatal("bogus wait policy accepted")
	}
	if err := run([]string{"-stm", "bogus", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("bogus engine accepted")
	}
	// Without the wire port a store would have no data surface.
	if err := run([]string{"-tcpaddr", "", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("empty -tcpaddr accepted")
	}
}

// getJSON GETs url, decodes a 200 body into into (when non-nil) and returns
// the status.
func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}
