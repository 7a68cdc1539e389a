package main

// Build-and-run smoke tests of the CLI flag plumbing: the binary is
// compiled into a temp dir and driven the way CI and users drive it.
// These are the tests that catch a flag that parses but is never wired
// into RunOptions.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/fuzzgen"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

func buildHicsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hicsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestHicsimFlagPlumbing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicsim(t)

	t.Run("json-check-coherence", func(t *testing.T) {
		cmd := exec.Command(bin, "-scale", "test", "-parallel", "4",
			"-timeout", "2m", "-json", "-check", "-check-coherence")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("hicsim: %v\nstderr:\n%s", err, stderr.String())
		}
		doc, err := runner.Decode(&stdout)
		if err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		if doc.Schema != envelope.SchemaV2 || doc.Kind != envelope.KindResults {
			t.Errorf("schema/kind = %q/%q, want %q/%q", doc.Schema, doc.Kind, envelope.SchemaV2, envelope.KindResults)
		}
		if doc.Scale != "test" || doc.Suite != "all" {
			t.Errorf("scale/suite = %s/%s, want test/all", doc.Scale, doc.Suite)
		}
		if len(doc.Runs) == 0 {
			t.Fatal("no run records")
		}
		for _, r := range doc.Runs {
			if r.Error != "" {
				t.Errorf("%s/%s failed under the oracle: [%s] %s", r.Workload, r.Config, r.ErrorKind, r.Error)
			}
		}
	})

	t.Run("metrics-and-trace-chrome", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "trace.json")
		cmd := exec.Command(bin, "-scale", "test", "-parallel", "4", "-json", "-metrics", "-trace-chrome", trace)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("hicsim: %v\nstderr:\n%s", err, stderr.String())
		}
		doc, err := runner.Decode(&stdout)
		if err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		for _, r := range doc.Runs {
			if r.Metrics == nil {
				t.Errorf("%s/%s: no metrics snapshot in run record", r.Workload, r.Config)
				continue
			}
			if r.Metrics.Schema != obs.MetricsSchema {
				t.Errorf("%s/%s: metrics schema %q", r.Workload, r.Config, r.Metrics.Schema)
			}
			if len(r.Metrics.StallCycles) == 0 && r.Cycles > 0 {
				t.Errorf("%s/%s: metrics snapshot has no stall cycles", r.Workload, r.Config)
			}
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("reading -trace-chrome output: %v", err)
		}
		var tf struct {
			TraceEvents []map[string]any `json:"traceEvents"`
			OtherData   map[string]any   `json:"otherData"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("-trace-chrome output is not valid JSON: %v", err)
		}
		if len(tf.TraceEvents) == 0 {
			t.Fatal("-trace-chrome output has no trace events")
		}
		if tf.OtherData["timestamp_unit"] != "cycles" {
			t.Errorf("otherData = %v, want timestamp_unit=cycles", tf.OtherData)
		}
	})

	t.Run("faults-matrix", func(t *testing.T) {
		out, err := exec.Command(bin, "-scale", "test", "-parallel", "4", "-faults", "matrix").CombinedOutput()
		if err != nil {
			t.Fatalf("hicsim -faults matrix: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "Buggy-annotation robustness matrix") {
			t.Errorf("missing matrix header:\n%s", out)
		}
		if !strings.Contains(string(out), "coherence") {
			t.Errorf("matrix reports no detected coherence violations:\n%s", out)
		}
	})

	t.Run("faults-custom-plan", func(t *testing.T) {
		out, err := exec.Command(bin, "-scale", "test", "-parallel", "4",
			"-faults", "delay-wb@16; delay-wb@64").CombinedOutput()
		if err != nil {
			t.Fatalf("hicsim -faults PLAN: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "custom") {
			t.Errorf("custom plan not reported as its own class:\n%s", out)
		}
	})

	t.Run("bad-fault-plan-exits-nonzero", func(t *testing.T) {
		out, err := exec.Command(bin, "-scale", "test", "-faults", "drop-wb@notanumber").CombinedOutput()
		if err == nil {
			t.Fatalf("bad fault plan accepted:\n%s", out)
		}
	})

	t.Run("manycore-check", func(t *testing.T) {
		cmd := exec.Command(bin, "-suite", "manycore", "-blocks", "2", "-scale", "test", "-json", "-check")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("hicsim: %v\nstderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "shapecheck: all expected orderings hold") {
			t.Errorf("no shapecheck verdict on stderr:\n%s", stderr.String())
		}
	})

	// Flags that do nothing for the chosen suite are rejected, not
	// silently ignored (TestParse checks every such pair in process).
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"blocks-outside-manycore-exits-nonzero", []string{"-suite", "intra", "-scale", "test", "-blocks", "2"}, "-blocks does not apply to -suite intra"},
		{"cores-per-block-outside-manycore-exits-nonzero", []string{"-scale", "test", "-cores-per-block", "4"}, "-cores-per-block does not apply to -suite all"},
		{"faults-with-suite-exits-nonzero", []string{"-suite", "inter", "-scale", "test", "-faults", "matrix"}, "-faults does not apply"},
		{"json-with-table1-exits-nonzero", []string{"-suite", "table1", "-scale", "test", "-json"}, "-json does not apply"},
		{"check-with-table1-exits-nonzero", []string{"-suite", "table1", "-scale", "test", "-check"}, "-check does not apply"},
		{"server-with-table1-exits-nonzero", []string{"-suite", "table1", "-scale", "test", "-server", "http://127.0.0.1:1"}, "-server does not apply"},
		{"unknown-suite-exits-nonzero", []string{"-suite", "storage", "-scale", "test"}, "unknown -suite"},
		{"block-parallel-exits-nonzero", []string{"-suite", "manycore", "-blocks", "2", "-scale", "test", "-block-parallel"}, "flag provided but not defined: -block-parallel"},
		{"litmus-flag-on-sweep-exits-nonzero", []string{"-suite", "inter", "-scale", "test", "-test", "sb"}, "-test does not apply to -suite inter"},
		{"scale-with-litmus-exits-nonzero", []string{"-suite", "litmus", "-scale", "test"}, "-scale does not apply to -suite litmus"},
		{"v-with-sweep-exits-nonzero", []string{"-suite", "inter", "-scale", "test", "-v"}, "-v does not apply"},
		{"litmus-enumerate-with-test-exits-nonzero", []string{"-suite", "litmus", "-enumerate", "-test", "sb"}, "test applies to the curated suite, not -enumerate"},
		{"litmus-negative-budget-exits-nonzero", []string{"-suite", "litmus", "-budget", "-5"}, "budget -5: must be non-negative"},
		{"litmus-k-without-enumerate-exits-nonzero", []string{"-suite", "litmus", "-k", "3"}, "-k applies to -suite litmus -enumerate only"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("hicsim %v accepted:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("error does not say %q:\n%s", tc.want, out)
			}
		})
	}

	// Oversized inputs are refused at once, with Request.Normalize's
	// bound and exit status 1; the deadline turns a hang into a failure.
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"huge-blocks-exits-1", []string{"-suite", "manycore", "-blocks", "9223372036854775807"}, "blocks 9223372036854775807: want at most 256"},
		{"huge-cores-per-block-exits-1", []string{"-suite", "manycore", "-blocks", "2", "-cores-per-block", "9223372036854775807"}, "cores_per_block 9223372036854775807: want at most 32"},
		{"huge-k-exits-1", []string{"-suite", "litmus", "-enumerate", "-k", "9223372036854775807"}, "k 9223372036854775807: want an op budget of at most 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, tc.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), tc.want) {
				t.Errorf("hicsim %v: %v\n%s\nwant exit status 1 and %q", tc.args, err, out, tc.want)
			}
		})
	}

	t.Run("bad-flag-exits-nonzero", func(t *testing.T) {
		if err := exec.Command(bin, "-definitely-not-a-flag").Run(); err == nil {
			t.Fatal("unknown flag accepted")
		}
	})

	t.Run("bad-scale-exits-nonzero", func(t *testing.T) {
		if err := exec.Command(bin, "-scale", "huge").Run(); err == nil {
			t.Fatal("unknown scale accepted")
		}
	})
}

// TestSuiteOutputsPinned pins stdout of every suite, text and -json, at
// test scale. The digests were taken from the per-figure and litmus
// commands this one replaced, so they also prove the fold changed no
// output byte.
func TestSuiteOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicsim(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-suite", "intra", "-scale", "test", "-json"}, "16a4dddf7ceec3729115ac95d6d0f61ac8148a80d408e935850633f95fab931e"},
		{[]string{"-suite", "intra", "-scale", "test"}, "03d83e1489eafcf579cc1507053a3f9607948e1b5ae553a722d9c2337a0be84c"},
		{[]string{"-suite", "inter", "-scale", "test", "-json"}, "ca88d21e0b39492ad17c5784047797613f44fd27c7bf3b51a6b4ef46881012f3"},
		{[]string{"-suite", "inter", "-scale", "test"}, "3de371901c0f1fec113b99d45432c2951bc9adf146b0b7272cbaece3e8d751e2"},
		{[]string{"-suite", "all", "-scale", "test", "-json"}, "9f1138cdeac479ab816f6fb299ee022a5139dcec7ddac6e00117850a3930c3ff"},
		{[]string{"-suite", "all", "-scale", "test"}, "88418acf100416965bdac123a7c23c42da581c5d4d6717ad03c48d6560ccb7aa"},
		// The only pinned document with metric snapshots: both
		// hierarchies' cache, L3 and memory metrics.
		{[]string{"-suite", "all", "-scale", "test", "-metrics", "-json"}, "b9fdbbf4f5edcbf738688928365dc7752fe242d26b89061ebd9fdde11ca1a688"},
		{[]string{"-suite", "overhead", "-json"}, "24686374509b8fd25671fbb13ca511cd2b0c99d6ebde2b54d78bcd470191a87e"},
		{[]string{"-suite", "overhead"}, "1dacf5b0c48c9997198f815f70acaba3c94ed1448a131ff6d5bec2eb7aa198e3"},
		{[]string{"-suite", "manycore", "-blocks", "4", "-scale", "test", "-json"}, "4aa5726b9e5724f75ad67d4b9eb9d218107f6c4bf375aa894ed99ca211a96b06"},
		{[]string{"-suite", "manycore", "-blocks", "4", "-scale", "test"}, "1d9478deb26bca86121d94fafdc5df89878345168bfb75cdb9dcabe3af9f53ea"},
		// -blocks 7 runs the -blocks 4 sweep, and its header says "up to 4
		// blocks".
		{[]string{"-suite", "manycore", "-blocks", "7", "-scale", "test"}, "1d9478deb26bca86121d94fafdc5df89878345168bfb75cdb9dcabe3af9f53ea"},
		{[]string{"-suite", "table1", "-scale", "test"}, "96e2e0a32303c3aa485353d7a5fccde104f33db7b936720fbacabcb39671f71a"},
		// The buggy-annotation matrix and a custom plan, at one worker and
		// at four.
		{[]string{"-scale", "test", "-parallel", "1", "-faults", "matrix"}, "d070a3682449d8e7793a5cde37c686f8384748f589036721671114c445175198"},
		{[]string{"-scale", "test", "-parallel", "4", "-faults", "matrix"}, "d070a3682449d8e7793a5cde37c686f8384748f589036721671114c445175198"},
		{[]string{"-scale", "test", "-parallel", "1", "-faults", "delay-wb@16; delay-wb@64"}, "3964498699f0e9a90df045033c6b456101ed88337f9f2470074d432d751134a8"},
		{[]string{"-scale", "test", "-parallel", "4", "-faults", "delay-wb@16; delay-wb@64"}, "3964498699f0e9a90df045033c6b456101ed88337f9f2470074d432d751134a8"},
		// The litmus digests were taken from the retired litmus command.
		{[]string{"-suite", "litmus", "-json"}, "67d3442a404343fc42091a93044b7bda7fb166cefc5868d6efb8044e54924159"},
		{[]string{"-suite", "litmus", "-v"}, "48bfab1525efbec2982ddd49093c1a432aa73a23dedd08ba44b889685bf91115"},
		{[]string{"-suite", "litmus", "-test", "sb", "-config", "Base"}, "40d66235bfcdfbb85297e4411943e5bf44258df2e856bcc8cfae478e18541577"},
		{[]string{"-suite", "litmus", "-enumerate", "-k", "3", "-json"}, "c117781c0158301123ca31bdb3beca72d64cb735f7ad0eefdd3426f7adf0422a"},
		// Litmus explorations fan out across -parallel workers; the
		// documents must not depend on the worker count.
		{[]string{"-suite", "litmus", "-json", "-parallel", "4"}, "67d3442a404343fc42091a93044b7bda7fb166cefc5868d6efb8044e54924159"},
		{[]string{"-suite", "litmus", "-enumerate", "-k", "3", "-json", "-parallel", "1"}, "c117781c0158301123ca31bdb3beca72d64cb735f7ad0eefdd3426f7adf0422a"},
		{[]string{"-suite", "litmus", "-enumerate", "-k", "3", "-json", "-parallel", "4"}, "c117781c0158301123ca31bdb3beca72d64cb735f7ad0eefdd3426f7adf0422a"},
		{[]string{"-suite", "litmus", "-enumerate", "-k", "3", "-v"}, "3ae1d0e5386c1624e383eb3c78e1528f6d2aabe4c5a2f8ba9a0979f37dcdd622"},
		// The fuzz digests were taken from the retired fuzz command's
		// `-seeds 1:201 -json` and `-seeds 1:9`; the document must not
		// depend on the worker count.
		{[]string{"-suite", "fuzz", "-seeds", "1:201", "-json"}, "5adda88aa0122f1e9405435d518646edf6d39d8172d17afc348cc6936c33c518"},
		{[]string{"-suite", "fuzz", "-seeds", "1:201", "-json", "-parallel", "1"}, "5adda88aa0122f1e9405435d518646edf6d39d8172d17afc348cc6936c33c518"},
		{[]string{"-suite", "fuzz", "-seeds", "1:9"}, "6910f7051e21ab443595e5d604166fb89eb7afe640e188409b570506f5e644c2"},
	} {
		name := strings.Join(tc.args, " ")
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("hicsim %s: %v", name, err)
			}
			// The wall-time line is the one nondeterministic output.
			var kept []byte
			for _, line := range bytes.SplitAfter(out, []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("sweep wall time")) {
					kept = append(kept, line...)
				}
			}
			sum := sha256.Sum256(kept)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("stdout sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestLitmusSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicsim(t)
	litmusRun := func(args ...string) *exec.Cmd {
		return exec.Command(bin, append([]string{"-suite", "litmus"}, args...)...)
	}

	t.Run("full-suite-passes", func(t *testing.T) {
		out, err := litmusRun("-v").CombinedOutput()
		if err != nil {
			t.Fatalf("-suite litmus -v: %v\n%s", err, out)
		}
		for _, want := range []string{"mp-annotated/Base: ok", "lock-lostupdate/Adaptive: ok", "schedules"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("json-is-deterministic", func(t *testing.T) {
		run := func() []byte {
			out, err := litmusRun("-json").Output()
			if err != nil {
				t.Fatalf("-suite litmus -json: %v", err)
			}
			return out
		}
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Fatal("-json output differs across two identical runs")
		}
		var doc litmus.Document
		if err := json.Unmarshal(a, &doc); err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		if doc.Schema != envelope.SchemaV2 || doc.Kind != envelope.KindLitmus {
			t.Errorf("schema/kind = %q/%q, want %q/%q", doc.Schema, doc.Kind, envelope.SchemaV2, envelope.KindLitmus)
		}
		if len(doc.Results) == 0 {
			t.Fatal("no results")
		}
		for _, r := range doc.Results {
			if !r.Verdict.OK {
				t.Errorf("%s", r.Verdict)
			}
			if r.Report.Schedules == 0 {
				t.Errorf("%s/%s: zero schedules", r.Report.Test, r.Report.Config)
			}
		}
	})

	t.Run("test-and-config-filters", func(t *testing.T) {
		out, err := litmusRun("-test", "sb", "-config", "Base").CombinedOutput()
		if err != nil {
			t.Fatalf("-test sb -config Base: %v\n%s", err, out)
		}
		if got := strings.TrimSpace(string(out)); got != "sb/Base: ok (expect none)" {
			t.Errorf("filtered run printed %q", got)
		}
	})

	t.Run("tiny-budget-exits-nonzero", func(t *testing.T) {
		out, err := litmusRun("-test", "sb", "-config", "Base", "-budget", "3").CombinedOutput()
		if err == nil {
			t.Fatalf("truncated exploration exited zero:\n%s", out)
		}
		if !strings.Contains(string(out), "not exhaustive") {
			t.Errorf("missing truncation diagnosis:\n%s", out)
		}
	})

	t.Run("failing-run-writes-profiles", func(t *testing.T) {
		// The profiles are stopped and written before a failing run exits.
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
		out, err := litmusRun("-test", "sb", "-budget", "2", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("truncated exploration: %v, want exit 1\n%s", err, out)
		}
		for _, p := range []string{cpu, mem} {
			if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
				t.Errorf("%s after a failing run: %v, want a non-empty profile", filepath.Base(p), err)
			}
		}
	})

	t.Run("unknown-test-exits-nonzero", func(t *testing.T) {
		out, err := litmusRun("-test", "no-such-test").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "unknown litmus test") {
			t.Fatalf("unknown test accepted: %v\n%s", err, out)
		}
	})

	t.Run("unknown-config-exits-nonzero", func(t *testing.T) {
		out, err := litmusRun("-config", "no-such-config").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "unknown litmus config") {
			t.Fatalf("unknown config accepted: %v\n%s", err, out)
		}
	})
}

// TestServedMatchesLocal runs suites locally and through -server against
// an in-process hicserve: stdout and exit status must match.
func TestServedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicsim(t)
	srv, err := serve.New(serve.Config{Workers: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	run := func(args ...string) ([]byte, int) {
		var stdout bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("hicsim %v: %v", args, err)
		}
		return stdout.Bytes(), cmd.ProcessState.ExitCode()
	}
	for _, args := range [][]string{
		{"-suite", "inter", "-scale", "test", "-json"},
		{"-suite", "manycore", "-blocks", "4", "-scale", "test", "-json"},
		{"-suite", "litmus", "-test", "sb", "-config", "Base", "-json"},
		// A truncated exploration fails its verdict: exit 1 either way.
		{"-suite", "litmus", "-test", "sb", "-config", "Base", "-budget", "3", "-json"},
		{"-suite", "fuzz", "-seeds", "1:9", "-json"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			want, wantCode := run(args...)
			got, gotCode := run(append(args, "-server", hs.URL)...)
			if !bytes.Equal(got, want) {
				t.Errorf("served stdout differs from local:\nserved:\n%s\nlocal:\n%s", got, want)
			}
			if gotCode != wantCode {
				t.Errorf("served exit status %d, local %d", gotCode, wantCode)
			}
		})
	}
}

// TestFuzzCLI drives -suite fuzz the way CI and users do: the text
// summary, the -json document's determinism across worker counts, the
// flags it shares with the other suites, the -config filter, corpus
// emission, and refused flags.
func TestFuzzCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildHicsim(t)
	fuzz := func(args ...string) *exec.Cmd {
		return exec.Command(bin, append([]string{"-suite", "fuzz"}, args...)...)
	}

	t.Run("text-summary", func(t *testing.T) {
		out, err := fuzz("-seeds", "1:9").CombinedOutput()
		if err != nil {
			t.Fatalf("-suite fuzz -seeds 1:9: %v\n%s", err, out)
		}
		for _, want := range []string{"fuzz: seeds [1,9): 8 programs", "Base"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("json-deterministic-across-workers", func(t *testing.T) {
		run := func(workers string) []byte {
			out, err := fuzz("-seeds", "1:9", "-parallel", workers, "-json").Output()
			if err != nil {
				t.Fatalf("-suite fuzz -json -parallel %s: %v", workers, err)
			}
			return out
		}
		a, b := run("1"), run("8")
		if !bytes.Equal(a, b) {
			t.Fatal("-json output differs between 1 and 8 workers")
		}
		var rep fuzzgen.Report
		if err := json.Unmarshal(a, &rep); err != nil {
			t.Fatalf("decoding -json output: %v", err)
		}
		if rep.Schema != envelope.SchemaV2 || rep.Kind != envelope.KindFuzz {
			t.Errorf("schema/kind = %q/%q, want %q/%q", rep.Schema, rep.Kind, envelope.SchemaV2, envelope.KindFuzz)
		}
		if rep.Programs != 8 || len(rep.Runs) != 8*4 {
			t.Errorf("programs = %d, runs = %d", rep.Programs, len(rep.Runs))
		}
		for _, r := range rep.Runs {
			if r.Error != "" {
				t.Errorf("%s/%s: %s", r.Workload, r.Config, r.Error)
			}
		}
	})

	// -parallel, -json and -timing must each parse and reach the run:
	// a flag that parses but is never wired in would leave the wall
	// times stripped (or kept) regardless of -timing.
	t.Run("shared-flags-round-trip", func(t *testing.T) {
		wall := func(args ...string) float64 {
			out, err := fuzz(append([]string{"-seeds", "1:3", "-parallel", "3", "-json"}, args...)...).Output()
			if err != nil {
				t.Fatalf("-suite fuzz %v: %v", args, err)
			}
			var rep fuzzgen.Report
			if err := json.Unmarshal(out, &rep); err != nil {
				t.Fatalf("decoding -json output: %v", err)
			}
			if len(rep.Runs) == 0 {
				t.Fatal("no runs in -json output")
			}
			var sum float64
			for _, r := range rep.Runs {
				sum += r.WallMS
			}
			return sum
		}
		if w := wall("-timing"); w <= 0 {
			t.Errorf("-timing: total wall_ms = %v, want > 0", w)
		}
		if w := wall(); w != 0 {
			t.Errorf("without -timing: total wall_ms = %v, want 0", w)
		}
	})

	t.Run("config-filter", func(t *testing.T) {
		out, err := fuzz("-seeds", "1:5", "-config", "B+M+I", "-json").Output()
		if err != nil {
			t.Fatalf("-suite fuzz -config B+M+I: %v", err)
		}
		var rep fuzzgen.Report
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Runs) != 4 {
			t.Errorf("runs = %d, want 4 (one config)", len(rep.Runs))
		}
	})

	t.Run("corpus-emission", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "corpus")
		out, err := fuzz("-seeds", "3:6", "-corpus", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("-suite fuzz -corpus: %v\n%s", err, out)
		}
		for _, seed := range []string{"3", "4", "5"} {
			body, err := os.ReadFile(filepath.Join(dir, "seed-"+seed))
			if err != nil {
				t.Fatal(err)
			}
			if want := "go test fuzz v1\nuint64(" + seed + ")\n"; string(body) != want {
				t.Errorf("seed-%s = %q, want %q", seed, body, want)
			}
		}
	})

	t.Run("bad-flags-exit-nonzero", func(t *testing.T) {
		for _, args := range [][]string{
			{"-seeds", "9:3"},
			{"-config", "no-such-config"},
			{"-json", "-schema", "v2"},
		} {
			if err := fuzz(args...).Run(); err == nil {
				t.Errorf("-suite fuzz %v accepted", args)
			}
		}
	})
}
