package main

// Build-and-run smoke tests: the binary is compiled into a temp dir and
// driven the way CI drives it, including the determinism guarantee of
// the -json document.

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/litmus"
)

func buildLitmus(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "litmus")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestLitmusCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildLitmus(t)

	t.Run("full-suite-passes", func(t *testing.T) {
		out, err := exec.Command(bin, "-v").CombinedOutput()
		if err != nil {
			t.Fatalf("litmus -v: %v\n%s", err, out)
		}
		for _, want := range []string{"mp-annotated/Base: ok", "lock-lostupdate/Adaptive: ok", "schedules"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("json-is-deterministic", func(t *testing.T) {
		run := func() []byte {
			out, err := exec.Command(bin, "-json").Output()
			if err != nil {
				t.Fatalf("litmus -json: %v", err)
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
		out, err := exec.Command(bin, "-test", "sb", "-config", "Base").CombinedOutput()
		if err != nil {
			t.Fatalf("litmus -test sb -config Base: %v\n%s", err, out)
		}
		if got := strings.TrimSpace(string(out)); got != "sb/Base: ok (expect none)" {
			t.Errorf("filtered run printed %q", got)
		}
	})

	t.Run("tiny-budget-exits-nonzero", func(t *testing.T) {
		out, err := exec.Command(bin, "-test", "sb", "-config", "Base", "-budget", "3").CombinedOutput()
		if err == nil {
			t.Fatalf("truncated exploration exited zero:\n%s", out)
		}
		if !strings.Contains(string(out), "not exhaustive") {
			t.Errorf("missing truncation diagnosis:\n%s", out)
		}
	})

	t.Run("unknown-test-exits-nonzero", func(t *testing.T) {
		if err := exec.Command(bin, "-test", "no-such-test").Run(); err == nil {
			t.Fatal("unknown test accepted")
		}
	})

	t.Run("unknown-config-exits-nonzero", func(t *testing.T) {
		if err := exec.Command(bin, "-config", "no-such-config").Run(); err == nil {
			t.Fatal("unknown config accepted")
		}
	})
}
