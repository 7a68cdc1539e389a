package main

// Build-and-run test, matching the other commands: the binary is
// compiled into a temp dir, serves one sweep, and must shut down
// cleanly on SIGTERM.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
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

// buildHicserve compiles the command into a temp dir, passing args to
// go build.
func buildHicserve(t *testing.T, args ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hicserve")
	if out, err := exec.Command("go", append(append([]string{"build", "-o", bin}, args...), ".")...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var listeningRE = regexp.MustCompile(`listening on (\S+) `)

// server is one running hicserve process; the test's cleanup kills it.
type server struct {
	cmd    *exec.Cmd
	logs   lockedBuffer
	exited chan error
	client *serve.Client
}

// startHicserve runs bin on a free port and waits for its address.
func startHicserve(t *testing.T, bin string, args ...string) *server {
	t.Helper()
	s := &server{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...), exited: make(chan error, 1)}
	s.cmd.Stdout, s.cmd.Stderr = &s.logs, &s.logs
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	t.Cleanup(func() {
		s.cmd.Process.Kill()
		<-s.exited
	})
	for deadline := time.Now().Add(10 * time.Second); s.client == nil; time.Sleep(20 * time.Millisecond) {
		if m := listeningRE.FindStringSubmatch(s.logs.String()); m != nil {
			s.client = &serve.Client{BaseURL: "http://" + m[1]}
		} else if time.Now().After(deadline) {
			t.Fatalf("no bound address logged within 10s:\n%s", s.logs.String())
		}
	}
	return s
}

// stop sends SIGTERM and requires a clean exit within 10s.
func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s.exited:
		s.exited <- err // for the cleanup
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, s.logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("still running 10s after SIGTERM:\n%s", s.logs.String())
	}
}

func TestSIGTERMShutsDownCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	cacheDir := t.TempDir()
	s := startHicserve(t, buildHicserve(t), "-cache-dir", cacheDir, "-parallel", "2")

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	data, err := s.client.Run(ctx, serve.Request{Suite: "intra", Scale: "test"})
	if err != nil {
		t.Fatalf("intra sweep: %v\n%s", err, s.logs.String())
	}
	if !json.Valid(data) {
		t.Fatalf("result is not JSON: %.200s", data)
	}

	s.stop(t)
	if !regexp.MustCompile(`(?m)stopped$`).MatchString(s.logs.String()) {
		t.Errorf("no shutdown line in the log:\n%s", s.logs.String())
	}
	// Every build files its entries one level down.
	glob := func(pattern string) []string {
		paths, _ := filepath.Glob(filepath.Join(cacheDir, "*", pattern))
		return paths
	}
	if tmp := glob("put-*"); len(tmp) > 0 {
		t.Errorf("temp files left in the cache dir: %v", tmp)
	}
	if entries := glob("*.entry"); len(entries) != 1 {
		t.Errorf("cache dir holds %d entries, want the one sweep's", len(entries))
	}
}

// TestCacheDirSharedAcrossBuilds: two builds that differ in one
// constant (the scaled L1 capacity, swapped in with go build -overlay)
// share every request address, so the store must tell them apart. Both
// carry the checkout's version stamp, which the overlay does not
// change: from a clean checkout both claim the clean revision. Each
// build, started in turn over one -cache-dir, computes its own bytes and
// then serves exactly those from the directory.
func TestCacheDirSharedAcrossBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	src, err := filepath.Abs("../../hic.go")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	const old = "scaledL1Bytes   = 4 << 10"
	if bytes.Count(orig, []byte(old)) != 1 {
		t.Fatalf("%s does not define %q once", src, old)
	}
	dir := t.TempDir()
	changed, overlay := filepath.Join(dir, "hic.go"), filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(changed, bytes.Replace(orig, []byte(old), []byte("scaledL1Bytes   = 8 << 10"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(map[string]map[string]string{"Replace": {src: changed}})
	if err := os.WriteFile(overlay, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	bins := []string{buildHicserve(t), buildHicserve(t, "-overlay", overlay)}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cacheDir := t.TempDir()
	req := serve.Request{Suite: "inter", Scale: "test"}
	// serveOnce starts build i over the shared directory, checks the
	// store's answer to one submit, and returns the served bytes.
	serveOnce := func(i int, wantCache string) []byte {
		s := startHicserve(t, bins[i], "-cache-dir", cacheDir)
		defer s.stop(t)
		reply, err := s.client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Cache != wantCache {
			t.Errorf("build %d: store answered %q, want %q", i, reply.Cache, wantCache)
		}
		if _, err := s.client.Wait(ctx, reply.ID); err != nil {
			t.Fatal(err)
		}
		data, err := s.client.Result(ctx, reply.ID)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	computed := [][]byte{serveOnce(0, "miss"), serveOnce(1, "miss")}
	if bytes.Equal(computed[0], computed[1]) {
		t.Fatal("the changed constant does not change the document")
	}
	for i, want := range computed {
		if got := serveOnce(i, "hit"); !bytes.Equal(got, want) {
			t.Errorf("build %d served another build's bytes from the shared dir", i)
		}
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
