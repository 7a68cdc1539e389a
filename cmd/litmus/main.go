// Command litmus runs the litmus-test suite: every test in
// internal/litmus's standard table, explored through all thread
// interleavings (up to the step budget) under each configuration, with
// outcomes checked against the declared allowed sets and the coherence
// oracle's visibility rules.
//
// Usage:
//
//	litmus [-test NAME] [-config NAME] [-budget N] [-max-schedules N] [-json]
//	       [-enumerate -k N] [-server URL] [-v]
//
// By default every suite test runs under every configuration (Base,
// B+M+I, Adaptive) and one verdict line is printed per pair; -v adds
// exploration statistics and the outcome histogram. -test and -config
// restrict the matrix. The exit status is nonzero iff any verdict
// fails — an annotated test with a violation, an under-annotated test
// whose bug no schedule exposed (or exposed with the wrong
// attribution), or a non-exhaustive exploration.
//
// Exploration uses dynamic partial-order reduction. -enumerate replaces
// the curated suite with the systematic enumeration of every litmus
// shape up to -k ops and fails unless every annotated program explores
// violation-free to exhaustion.
//
// With -json a single machine-readable document (schema hic/v2, kind
// "litmus") is emitted on stdout instead of the text report. The
// document is canonical: fixed key order, sorted outcome maps, no
// timestamps — byte-identical across runs. -server URL delegates the
// run to a hicserve instance and prints the fetched document —
// byte-identical to a local -json run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/litmus"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("litmus: ")
	f := cli.Register(flag.CommandLine, cli.FlagJSON|cli.FlagExplore|cli.FlagServer)
	testName := flag.String("test", "", "run only the named suite test")
	cfgName := flag.String("config", "", "run only the named configuration (Base, B+M+I, Adaptive)")
	budget := flag.Int("budget", 0, "per-schedule step budget (0 = default)")
	maxSched := flag.Int("max-schedules", 0, "total schedule cap per exploration (0 = default)")
	verbose := flag.Bool("v", false, "print exploration statistics and outcome histograms")
	flag.Parse()
	if err := f.Validate(); err != nil {
		log.Fatal(err)
	}

	if f.Server != "" {
		req := serve.Request{
			Suite: "litmus", Test: *testName, Config: *cfgName,
			Budget: *budget, MaxSchedules: *maxSched,
			Enumerate: f.Enumerate, K: f.K,
		}
		if _, err := f.RunRemote(context.Background(), req, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	tests := litmus.Suite
	if *testName != "" {
		t, ok := litmus.SuiteTest(*testName)
		if !ok {
			log.Fatalf("unknown test %q; suite tests: %s", *testName, suiteNames())
		}
		tests = []litmus.Test{t}
	}
	configs := litmus.Configs
	if *cfgName != "" {
		c, ok := litmus.ConfigByName(*cfgName)
		if !ok {
			log.Fatalf("unknown config %q; configs: %s", *cfgName, configNames())
		}
		configs = []litmus.Config{c}
	}
	opts := litmus.Options{Budget: *budget, MaxSchedules: *maxSched}

	var doc *litmus.Document
	if f.Enumerate {
		doc = litmus.EnumerateDocument(configs, f.K, opts)
	} else {
		var err error
		doc, err = litmus.SuiteDocument(tests, configs, opts)
		if err != nil {
			log.Fatal(err)
		}
	}

	if f.JSON {
		if err := doc.Encode(os.Stdout); err != nil {
			log.Fatal(err)
		}
	} else if f.Enumerate {
		printSweeps(doc, f.K, *verbose)
	} else {
		printSuite(doc, *verbose)
	}
	if doc.Failed() {
		os.Exit(1)
	}
}

// printSuite renders the text report: one verdict line per
// (test, configuration) pair, plus exploration statistics with -v.
func printSuite(doc *litmus.Document, verbose bool) {
	for _, r := range doc.Results {
		fmt.Println(r.Verdict)
		if verbose {
			rep := r.Report
			fmt.Printf("  %d schedules, %d pruned, %d dead ends, %d violation schedule(s)\n",
				rep.Schedules, rep.Pruned, rep.DeadEnds, rep.ViolationSchedules)
			for _, o := range rep.SortedOutcomes() {
				fmt.Printf("  outcome %-24s count=%-6d allowed=%-5v sample=%s\n",
					o.Key, o.Count, o.Allowed, o.Sample)
			}
			for _, vi := range rep.Violations {
				fmt.Printf("  violation [%s] on %s: %s\n", vi.Class, vi.Schedule, vi.Detail)
			}
		}
	}
}

// printSweeps renders the -enumerate text report, one line per
// configuration sweep.
func printSweeps(doc *litmus.Document, k int, verbose bool) {
	for _, st := range doc.Sweeps {
		ok := len(st.Stats.Violating) == 0 && len(st.Stats.Failed) == 0
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("%s enumerate k=%d config=%s: %d programs, %d mutants\n",
			status, k, st.Config, st.Stats.Programs, st.Stats.Mutants)
		if verbose || !ok {
			fmt.Printf("  runs=%d schedules=%d dedup_cuts=%d states=%d\n",
				st.Stats.Runs, st.Stats.Schedules, st.Stats.DedupCuts, st.Stats.StatesSeen)
			for _, name := range st.Stats.Violating {
				fmt.Printf("  violating: %s\n", name)
			}
			for _, name := range st.Stats.Failed {
				fmt.Printf("  not exhaustive: %s\n", name)
			}
		}
	}
}

func suiteNames() string {
	s := ""
	for i, t := range litmus.Suite {
		if i > 0 {
			s += ", "
		}
		s += t.Name
	}
	return s
}

func configNames() string {
	s := ""
	for i, c := range litmus.Configs {
		if i > 0 {
			s += ", "
		}
		s += c.Name
	}
	return s
}
