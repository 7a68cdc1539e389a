// Command hicfuzz runs the annotation-robustness fuzz campaign: every
// seed in the range generates a random concurrent program (fuzzgen),
// which is checked — annotated and under-annotated-mutant forms alike —
// under the shadow-SC coherence oracle and across the three execution
// engines under every incoherent buffer configuration.
//
// Usage:
//
//	hicfuzz [-seeds LO:HI] [-mutants N] [-budget D] [-config NAME]
//	        [-parallel N] [-json] [-timing] [-v]
//	hicfuzz -corpus DIR [-seeds LO:HI]
//
// The campaign passes iff every annotated program is violation-free,
// every mutant is detected with attribution or provably masked, and all
// three engines agree byte for byte on every case; any breach shrinks
// to a minimal litmus-DSL repro, printed with the failure (error_kind
// "fuzz-repro" in -json), and the exit status is 1.
//
// Cells fan out across -parallel workers (0, the default, means
// GOMAXPROCS).
//
// With -json the campaign report is emitted on stdout under the hic/v2
// envelope with kind "fuzz". The document is canonical — host wall
// times are stripped unless -timing — so identical invocations are
// byte-identical whatever the worker count.
//
// With -corpus the seed range is written as Go fuzz corpus files
// (one "go test fuzz v1" input per seed) into the directory, seeding
// `go test -fuzz FuzzAnnotatedProgram ./internal/fuzzgen/`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/envelope"
	"repro/internal/fuzzgen"
	"repro/internal/litmus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hicfuzz: ")
	parallel := flag.Int("parallel", 0, "worker count for the experiment sweeps (0 = GOMAXPROCS)")
	asJSON := flag.Bool("json", false, "emit results as a machine-readable JSON document on stdout")
	timing := flag.Bool("timing", false, "include host wall times in -json output (not deterministic)")
	seeds := flag.String("seeds", "1:201", "seed range LO:HI (half-open; one program per seed)")
	mutants := flag.Int("mutants", 2, "under-annotated mutants derived per program")
	budget := flag.Duration("budget", 0, "campaign wall-time budget: cells starting after it are skipped (0 = none)")
	cfgName := flag.String("config", "", "run only the named configuration (Base, B+M, B+I, B+M+I)")
	corpus := flag.String("corpus", "", "write the seed range as Go fuzz corpus files into this directory and exit")
	verbose := flag.Bool("v", false, "print every detection, not just the summary")
	flag.Parse()
	lo, hi, err := parseSeeds(*seeds)
	if err != nil {
		log.Fatal(err)
	}

	if *corpus != "" {
		if err := writeCorpus(*corpus, lo, hi); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d corpus inputs to %s\n", hi-lo, *corpus)
		return
	}

	opts := fuzzgen.Options{
		SeedLo: lo, SeedHi: hi,
		MutantsPerProgram: *mutants,
		Parallel:          *parallel,
		Budget:            *budget,
	}
	if *cfgName != "" {
		c, ok := litmus.ConfigByName(*cfgName)
		if !ok {
			log.Fatalf("unknown config %q (want Base, B+M, B+I, or B+M+I)", *cfgName)
		}
		opts.Configs = []litmus.Config{c}
	}

	rep, runErr := fuzzgen.Campaign(context.Background(), opts)
	if *asJSON {
		if !*timing {
			for i := range rep.Runs {
				rep.Runs[i].WallMS = 0
			}
		}
		if err := envelope.Encode(os.Stdout, rep); err != nil {
			log.Fatal(err)
		}
	} else {
		printReport(rep, *verbose)
	}
	if runErr != nil {
		if !*asJSON {
			fmt.Printf("FAIL: %v\n", firstLine(runErr))
		}
		os.Exit(1)
	}
}

// parseSeeds parses "LO:HI" into a non-empty half-open range.
func parseSeeds(s string) (lo, hi uint64, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("-seeds %q: want LO:HI", s)
	}
	if lo >= hi {
		return 0, 0, fmt.Errorf("-seeds %q: empty range", s)
	}
	return lo, hi, nil
}

// writeCorpus emits one Go fuzz corpus input per seed, in the encoding
// `go test -fuzz` reads from testdata/fuzz/<FuzzName>/.
func writeCorpus(dir string, lo, hi uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for seed := lo; seed < hi; seed++ {
		body := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", seed)), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printReport renders the campaign summary: corpus counts, the
// detection table by mutation class and configuration, mask-reason
// histogram, and — under -v or on failure — the detections and shrunk
// repros.
func printReport(rep *fuzzgen.Report, verbose bool) {
	fmt.Printf("fuzz: seeds [%d,%d): %d programs, %d mutants, %d cells",
		rep.SeedLo, rep.SeedHi, rep.Programs, rep.Mutants, rep.Cells)
	if rep.SkippedCells > 0 {
		fmt.Printf(" (%d skipped on budget)", rep.SkippedCells)
	}
	fmt.Println()

	classes := map[string]bool{}
	configs := map[string]bool{}
	for class, byCfg := range rep.Detected {
		classes[class] = true
		for cfg := range byCfg {
			configs[cfg] = true
		}
	}
	for class, byCfg := range rep.Masked {
		classes[class] = true
		for cfg := range byCfg {
			configs[cfg] = true
		}
	}
	for _, class := range sortedKeys(classes) {
		fmt.Printf("  %-16s", class)
		for _, cfg := range sortedKeys(configs) {
			det := rep.Detected[class][cfg]
			tot := det + rep.Masked[class][cfg]
			fmt.Printf("  %s %d/%d", cfg, det, tot)
		}
		fmt.Println()
	}
	if len(rep.MaskReasons) > 0 {
		fmt.Printf("  masked:")
		for _, reason := range sortedKeys(toBoolSet(rep.MaskReasons)) {
			fmt.Printf(" %s=%d", reason, rep.MaskReasons[reason])
		}
		fmt.Println()
	}
	if verbose {
		for _, d := range rep.Detections {
			fmt.Printf("  detect %s/%s: %s at t%d.%d -> %s\n",
				d.Mutant, d.Config, d.Mutation, d.Thread, d.Index, d.Violation)
		}
	}
	for _, r := range rep.Runs {
		if r.Error == "" {
			continue
		}
		fmt.Printf("FAIL %s/%s: %s\n", r.Workload, r.Config, r.Error)
		if r.Repro != "" {
			fmt.Println(indent(r.Repro, "  "))
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func toBoolSet(m map[string]int) map[string]bool {
	s := make(map[string]bool, len(m))
	for k := range m {
		s[k] = true
	}
	return s
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}

func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}
