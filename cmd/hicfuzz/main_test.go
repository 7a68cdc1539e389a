package main

// Build-and-run smoke tests, matching the other commands: the binary is
// compiled into a temp dir and driven the way CI drives it, including
// the determinism guarantee of the -json document across worker counts.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/fuzzgen"
)

func TestParseSeeds(t *testing.T) {
	if lo, hi, err := parseSeeds("1:201"); err != nil || lo != 1 || hi != 201 {
		t.Fatalf("parseSeeds(1:201) = %d, %d, %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "9:9", "10:5", "a:b"} {
		if _, _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

func buildFuzz(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hicfuzz")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestFuzzCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildFuzz(t)

	t.Run("text-summary", func(t *testing.T) {
		out, err := exec.Command(bin, "-seeds", "1:9").CombinedOutput()
		if err != nil {
			t.Fatalf("hicfuzz -seeds 1:9: %v\n%s", err, out)
		}
		for _, want := range []string{"fuzz: seeds [1,9): 8 programs", "Base"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("json-deterministic-across-workers", func(t *testing.T) {
		run := func(workers string) []byte {
			out, err := exec.Command(bin, "-seeds", "1:9", "-parallel", workers, "-json").Output()
			if err != nil {
				t.Fatalf("hicfuzz -json -parallel %s: %v", workers, err)
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
			out, err := exec.Command(bin, append([]string{"-seeds", "1:3", "-parallel", "3", "-json"}, args...)...).Output()
			if err != nil {
				t.Fatalf("hicfuzz %v: %v", args, err)
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
		out, err := exec.Command(bin, "-seeds", "1:5", "-config", "B+M+I", "-json").Output()
		if err != nil {
			t.Fatalf("hicfuzz -config B+M+I: %v", err)
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
		out, err := exec.Command(bin, "-seeds", "3:6", "-corpus", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("hicfuzz -corpus: %v\n%s", err, out)
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
			if err := exec.Command(bin, args...).Run(); err == nil {
				t.Errorf("hicfuzz %v accepted", args)
			}
		}
	})
}
