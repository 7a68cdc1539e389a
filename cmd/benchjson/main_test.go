package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRunIntraBlock/serial         	       1	3206353338 ns/op	         1.000 workers
BenchmarkRunIntraBlock/parallel       	       1	3195553338 ns/op	62054400 B/op	  361336 allocs/op
pkg: repro/internal/engine
BenchmarkEngineStep/threads-64        	      22	  51000000 ns/op
`

func TestParseIntoDocument(t *testing.T) {
	doc := Doc{Schema: "hic-bench/v1", Sets: map[string][]Bench{}}
	parseInto(&doc, "ci", strings.NewReader(sample))
	if doc.Goos != "linux" || doc.CPU == "" {
		t.Errorf("context not captured: goos=%q cpu=%q", doc.Goos, doc.CPU)
	}
	set := doc.Sets["ci"]
	if len(set) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(set))
	}
	// Sorted by (pkg, name): the engine benchmark sorts after the two
	// root-package sweeps despite appearing last in the input.
	if set[2].Name != "BenchmarkEngineStep/threads-64" || set[2].Pkg != "repro/internal/engine" {
		t.Errorf("sort order wrong: %+v", set[2])
	}
	if set[0].NsPerOp != 3195553338 || set[0].BPerOp == nil || *set[0].BPerOp != 62054400 {
		t.Errorf("parallel line misparsed: %+v", set[0])
	}
	if set[1].Metrics["workers"] != 1 {
		t.Errorf("custom metric lost: %+v", set[1])
	}
}

// sampleProcs2 is a run at GOMAXPROCS 2: go test appended "-2" to every
// name, after sub-benchmark names that themselves end in digits.
const sampleProcs2 = `pkg: repro/internal/compiler
BenchmarkAnalyze/jacobi/threads-64-2   	      20	   1305308 ns/op	  985769 B/op	    4064 allocs/op
BenchmarkAnalyze/is/threads-32-2       	      20	   1251088 ns/op	 1630801 B/op	     629 allocs/op
`

func TestGOMAXPROCSFromNameSuffix(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     int
	}{
		// "threads-64" is the sub-benchmark's own name, not a suffix:
		// the other names end without one.
		{"no suffix", sample, 1},
		{"suffix -2", sampleProcs2, 2},
	} {
		doc := Doc{Sets: map[string][]Bench{}}
		parseInto(&doc, "bench", strings.NewReader(c.in))
		if doc.GOMAXPROCS != c.want {
			t.Errorf("%s: gomaxprocs = %d, want %d", c.name, doc.GOMAXPROCS, c.want)
		}
	}

	doc := Doc{Sets: map[string][]Bench{}}
	parseInto(&doc, "bench", strings.NewReader(sampleProcs2))
	if name := doc.Sets["bench"][0].Name; name != "BenchmarkAnalyze/is/threads-32-2" {
		t.Errorf("name rewritten: %q", name)
	}
	var buf bytes.Buffer
	if err := writeTrajectory(&buf, strings.NewReader(sampleProcs2), "abc123", "2026-08-08T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	var e TrajectoryEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.GOMAXPROCS != 2 || e.Benchmarks["BenchmarkAnalyze/jacobi/threads-64-2"] != 1305308 {
		t.Errorf("trajectory entry = %+v", e)
	}
}

func TestTrajectoryEntry(t *testing.T) {
	var buf bytes.Buffer
	err := writeTrajectory(&buf, strings.NewReader(sample), "abc123", "2026-08-08T00:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if n := strings.Count(line, "\n"); n != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("want exactly one appendable line, got %q", line)
	}
	var e TrajectoryEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Schema != "hic-bench-traj/v1" || e.SHA != "abc123" || e.Date != "2026-08-08T00:00:00Z" {
		t.Errorf("header wrong: %+v", e)
	}
	if e.Benchmarks["BenchmarkRunIntraBlock/serial"] != 3206353338 {
		t.Errorf("benchmarks = %v", e.Benchmarks)
	}
	if len(e.Benchmarks) != 3 {
		t.Errorf("want 3 benchmarks, got %d", len(e.Benchmarks))
	}

	// Pinned inputs produce byte-identical lines: the trajectory file
	// stays diffable and append-only.
	var again bytes.Buffer
	if err := writeTrajectory(&again, strings.NewReader(sample), "abc123", "2026-08-08T00:00:00Z"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("trajectory entry not deterministic")
	}
}
