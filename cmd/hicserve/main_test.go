package main

// Build-and-run test, matching the other commands: the binary is
// compiled into a temp dir, serves one sweep, and must shut down
// cleanly on SIGTERM.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// lockedBuffer collects the server's log while the test polls it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildHicserve compiles the command into a temp dir.
func buildHicserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hicserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var listeningRE = regexp.MustCompile(`listening on (\S+) `)

func TestSIGTERMShutsDownCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicserve(t)
	cacheDir := t.TempDir()
	var logs lockedBuffer
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir, "-parallel", "2")
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(20 * time.Millisecond) {
		if m := listeningRE.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no bound address logged within 10s:\n%s", logs.String())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client := &serve.Client{BaseURL: "http://" + addr}
	data, err := client.Run(ctx, serve.Request{Suite: "intra", Scale: "test"})
	if err != nil {
		t.Fatalf("intra sweep: %v\n%s", err, logs.String())
	}
	if !json.Valid(data) {
		t.Fatalf("result is not JSON: %.200s", data)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the cleanup
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("still running 10s after SIGTERM:\n%s", logs.String())
	}
	if !regexp.MustCompile(`(?m)stopped$`).MatchString(logs.String()) {
		t.Errorf("no shutdown line in the log:\n%s", logs.String())
	}
	if tmp, _ := filepath.Glob(filepath.Join(cacheDir, "put-*")); len(tmp) > 0 {
		t.Errorf("temp files left in the cache dir: %v", tmp)
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.entry")); len(entries) != 1 {
		t.Errorf("cache dir holds %d entries, want the one sweep's", len(entries))
	}
}

// TestNonPositiveCountsRefused: the job and worker counts must be
// positive and the timeout not negative. A zero or negative -workers,
// -queue, -per-tenant or -parallel, or a negative -timeout, exits 1
// naming the flag, rather than starting with a default the startup log
// does not show.
func TestNonPositiveCountsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicserve(t)
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-queue", "0"},
		{"-per-tenant", "0"},
		{"-workers", "-1"},
		{"-parallel", "0"},
		{"-parallel", "-5"},
		{"-timeout", "-1s"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("hicserve %s: %v, want exit status 1\n%s", strings.Join(args, " "), err, out)
			}
			if !strings.Contains(string(out), args[0]+" ") {
				t.Errorf("message does not name %s:\n%s", args[0], out)
			}
		})
	}
}
