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
// entry point, once per WAL layout: kill a WAL-backed tkvd mid-load
// twice, restart it over the same directory, and require the zero-loss
// verdict. The shared-lane subtest is the one that exercises the
// interleaved recovery demux and the one-fsync ack path under a real
// kill -9.
func TestCrashScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	bin := buildTkvd(t)
	for _, mode := range []string{"shared", "pershard"} {
		t.Run(mode, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{
				"-scenario", "crash",
				"-tkvd", bin,
				"-waldir", t.TempDir(),
				"-walmode", mode,
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
			// Every restart must have recovered through the WAL in the mode
			// under test, not started empty.
			if got := strings.Count(out.String(), "restarted; tkvd: wal"); got != 2 {
				t.Fatalf("expected 2 recovery lines, saw %d:\n%s", got, out.String())
			}
			if got := strings.Count(out.String(), "mode="+mode); got != 2 {
				t.Fatalf("expected 2 mode=%s recovery lines, saw %d:\n%s", mode, got, out.String())
			}
		})
	}
}

func TestCrashScenarioFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "crash"}, &out); err == nil {
		t.Fatal("crash without -tkvd accepted")
	}
}
