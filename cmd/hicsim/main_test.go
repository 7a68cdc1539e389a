package main

// Build-and-run smoke tests of the CLI flag plumbing: the binary is
// compiled into a temp dir and driven the way CI and users drive it.
// These are the tests that catch a flag that parses but is never wired
// into RunOptions.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/obs"
	"repro/internal/runner"
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
