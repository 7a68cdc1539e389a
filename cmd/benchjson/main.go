// Command benchjson converts `go test -bench` output into a small JSON
// document (schema hic-bench/v1) so benchmark numbers can be recorded in
// the repo (BENCH_hotpath.json) and uploaded as CI artifacts without
// hand-transcription.
//
// Usage:
//
//	benchjson [label=file ...]      # one labeled set per file
//	benchjson < bench.txt           # single set labeled "bench"
//	benchjson -trajectory [-sha S] [-date D] [file]
//
// Each set holds the parsed benchmark lines of one `go test -bench` run:
// name, iterations, ns/op, and — when -benchmem was on — B/op and
// allocs/op, plus any custom ReportMetric units. Context lines (goos,
// goarch, pkg, cpu) are folded into the set, keyed by the last `pkg:`
// seen so multi-package output concatenated from `go test ./...` parses
// cleanly. The document and trajectory lines also record the run's
// GOMAXPROCS, read from the "-N" suffix `go test` appends to every
// benchmark name when GOMAXPROCS is N > 1 (no suffix means 1); names are
// kept as printed.
//
// -trajectory instead emits one compact hic-bench-traj/v1 line — commit
// SHA, date, and ns/op per benchmark — meant to be appended to a growing
// JSON-lines file (BENCH_trajectory.jsonl, and the CI bench job's
// trajectory artifact), so the repo accumulates a queryable wall-clock
// history one entry per change. The SHA defaults to $GITHUB_SHA then
// `git rev-parse HEAD`; the date defaults to now (UTC, RFC 3339). Both
// flags exist so CI and tests can pin them.
//
// Compare two sets statistically with benchstat (see DESIGN.md
// "Performance"): benchjson records the snapshot; benchstat judges the
// delta.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     *float64           `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the output document.
type Doc struct {
	Schema     string             `json:"schema"`
	Goos       string             `json:"goos,omitempty"`
	Goarch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"` // of the last parsed run
	Sets       map[string][]Bench `json:"sets"`
}

// TrajectoryEntry is one appendable bench-trajectory line (schema
// hic-bench-traj/v1): where the tree was, when it ran, and the headline
// ns/op per benchmark. Keys are sorted by Go's map marshaling, so equal
// inputs produce byte-equal lines.
type TrajectoryEntry struct {
	Schema     string             `json:"schema"`
	SHA        string             `json:"sha"`
	Date       string             `json:"date"`
	Goos       string             `json:"goos,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmarks map[string]float64 `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	traj := flag.Bool("trajectory", false, "emit one appendable hic-bench-traj/v1 JSON line instead of a document")
	sha := flag.String("sha", "", "commit SHA for -trajectory (default: $GITHUB_SHA, then git rev-parse HEAD)")
	date := flag.String("date", "", "RFC 3339 date for -trajectory (default: now, UTC)")
	flag.Parse()

	if *traj {
		in := io.Reader(os.Stdin)
		if flag.NArg() > 0 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			in = f
		}
		if err := writeTrajectory(os.Stdout, in, *sha, *date); err != nil {
			log.Fatal(err)
		}
		return
	}

	doc := Doc{Schema: "hic-bench/v1", Sets: map[string][]Bench{}}
	if flag.NArg() == 0 {
		parseInto(&doc, "bench", os.Stdin)
	} else {
		for _, arg := range flag.Args() {
			label, path, ok := strings.Cut(arg, "=")
			if !ok {
				log.Fatalf("argument %q is not label=file", arg)
			}
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			parseInto(&doc, label, f)
			f.Close()
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// writeTrajectory parses one bench run from r and writes a single
// trajectory line to w.
func writeTrajectory(w io.Writer, r io.Reader, sha, date string) error {
	doc := Doc{Sets: map[string][]Bench{}}
	parseInto(&doc, "bench", r)
	if sha == "" {
		sha = resolveSHA()
	}
	if date == "" {
		date = time.Now().UTC().Format(time.RFC3339)
	}
	e := TrajectoryEntry{
		Schema:     "hic-bench-traj/v1",
		SHA:        sha,
		Date:       date,
		Goos:       doc.Goos,
		CPU:        doc.CPU,
		GOMAXPROCS: doc.GOMAXPROCS,
		Benchmarks: map[string]float64{},
	}
	for _, b := range doc.Sets["bench"] {
		e.Benchmarks[b.Name] = b.NsPerOp
	}
	return json.NewEncoder(w).Encode(e)
}

// resolveSHA finds the commit under benchmark: the CI-provided SHA when
// present, the working tree's HEAD otherwise.
func resolveSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func parseInto(doc *Doc, label string, r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	var names []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				log.Fatalf("%s: %v", line, err)
			}
			b.Pkg = pkg
			doc.Sets[label] = append(doc.Sets[label], b)
			names = append(names, b.Name)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	doc.GOMAXPROCS = gomaxprocs(names)
	sort.SliceStable(doc.Sets[label], func(i, j int) bool {
		a, b := doc.Sets[label][i], doc.Sets[label][j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
}

// gomaxprocs infers a run's GOMAXPROCS from its benchmark names. With
// GOMAXPROCS N > 1, go test ends every name in "-N"; with 1 it appends
// nothing. A sub-benchmark's own name may also end in "-<digits>"
// ("threads-64"), so N is taken only when every name of the run ends in
// the same "-N"; otherwise the run used 1.
func gomaxprocs(names []string) int {
	procs := 0
	for _, name := range names {
		i := strings.LastIndexByte(name, '-')
		if i < 0 {
			return 1
		}
		n, err := strconv.Atoi(name[i+1:])
		if err != nil || n < 2 || (procs != 0 && n != procs) {
			return 1
		}
		procs = n
	}
	return max(procs, 1)
}

// parseLine parses one result line:
//
//	BenchmarkX/sub-8  100  12.3 ns/op  4 B/op  1 allocs/op  5.0 widgets
//
// Values come in "<number> <unit>" pairs after the iteration count.
func parseLine(line string) (Bench, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, fmt.Errorf("too few fields")
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, fmt.Errorf("iterations: %v", err)
	}
	b := Bench{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, fmt.Errorf("value %q: %v", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			v := v
			b.BPerOp = &v
		case "allocs/op":
			v := v
			b.AllocsOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}
