// Command hicsim runs the reproduction — Table I, the Section VII-A
// storage comparison, Figures 9 through 12, and the many-core
// block-scaling sweep — and prints either a text report or the
// machine-readable document.
//
// Usage:
//
//	hicsim [-suite intra|inter|all|manycore|overhead|table1] [-scale test|bench]
//	       [-parallel N] [-timeout D] [-json] [-timing] [-check] [-check-coherence]
//	       [-faults matrix|PLAN] [-metrics] [-trace-chrome F]
//	       [-cpuprofile F] [-memprofile F]
//	       [-blocks N] [-cores-per-block N] [-server URL]
//
// -suite selects what runs, by the names hicserve's requests use:
//
//	intra     Figures 9 and 10 (intra-block time and traffic)
//	inter     Figures 11 and 12 (inter-block WB/INV counts and time)
//	all       (default) Table I, the storage comparison and Figures 9-12
//	manycore  the E7 block-scaling sweep: Jacobi and NAS EP on machines of
//	          1, 2, 4, ... blocks up to -blocks, each of -cores-per-block
//	          cores (default 8), under Addr+L
//	overhead  the Section VII-A storage comparison (the incoherent
//	          hierarchy saves about 102 KB)
//	table1    Table I, the communication-pattern classification with a
//	          census of the synchronization operations each kernel executes
//
// A flag that does nothing for the chosen suite is an error, not ignored:
// -blocks and -cores-per-block apply to manycore only, the sweep flags to
// the four results suites (intra, inter, all, manycore), -json and
// -server to those and overhead, and table1 is text only.
// `hicsim -suite manycore -blocks 128` runs machines up to 1024 cores.
//
// Runs fan out across -parallel workers (default GOMAXPROCS); results are
// identical to a serial sweep. -timeout bounds each individual run; a run
// that exceeds it fails its own cell instead of hanging the sweep.
//
// -check-coherence attaches the shadow-memory coherence oracle to every
// run: each load is checked against the happens-before-legal value set
// and a violation fails the cell with a labeled coherence error.
//
// -faults runs the buggy-annotation robustness experiment instead of the
// figures (suite all only): "matrix" injects the canonical fault classes
// (dropped and delayed writebacks, skipped invalidations, a lying IEB, an
// over-capped MEB) into every intra-block application; any other argument
// is a fault plan in the internal/faultinject grammar injected as-is. The
// detection matrix is printed and the command exits nonzero only on
// harness failures — detected violations are the experiment's successful
// outcome.
//
// With -json the suite's document is emitted on stdout (schema hic/v2,
// kind "results", or "storage" for overhead) instead of the text report.
// The JSON is canonical — byte-identical for serial and parallel runs —
// unless -timing adds host wall times. With -check the paper's expected
// config-vs-config orderings (DESIGN.md §4) are evaluated against the
// results document and the command exits nonzero on any violation; this
// is the gate CI runs.
//
// -metrics attaches the observability layer to every run and embeds each
// cell's deterministic snapshot (cache/MEB/IEB counters, NoC histograms,
// stall-cycle totals) in its JSON run record. -trace-chrome writes the
// sweep's per-core stall timelines as a Chrome trace_event file, one
// process per cell, viewable in Perfetto or chrome://tracing.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep (see
// DESIGN.md "Performance" for the profiling workflow); sweep goroutines
// are labeled workload/config, so `go tool pprof -tags` attributes
// samples to experiment cells.
//
// -server URL delegates the suite to a hicserve instance and prints the
// fetched document — byte-identical to a local -json run; warm resubmits
// are answered from the server's content-addressed cache without
// re-simulating. -check still runs locally, against the fetched document.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	hic "repro"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/shapecheck"
)

// Flag scopes, as space-separated flag names.
const (
	// anySuite flags apply to every suite.
	anySuite   = "suite cpuprofile memprofile"
	docFlags   = "json server tenant"
	sweepFlags = docFlags + " scale parallel timeout timing check check-coherence metrics"
	// faultFlags are those the robustness experiment (-faults within
	// suite all) uses.
	faultFlags = "scale parallel timeout faults"
)

// accepts lists, per suite, the flags beyond anySuite that do something
// there; setting any other flag is an error, the way
// serve.Request.Normalize rejects inert fields.
var accepts = map[string]string{
	"intra":    sweepFlags + " trace-chrome",
	"inter":    sweepFlags + " trace-chrome",
	"all":      sweepFlags + " trace-chrome",
	"manycore": sweepFlags + " blocks cores-per-block",
	"overhead": docFlags,
	"table1":   "scale",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hicsim: ")
	f := cli.Register(flag.CommandLine, cli.SweepFlags)
	suite := flag.String("suite", "all", "what to run: intra, inter, all, manycore, overhead, or table1")
	flag.Parse()
	if err := validate(*suite, f); err != nil {
		log.Fatal(err)
	}
	s, err := f.ScaleValue()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	if f.Server != "" {
		runRemote(ctx, *suite, f)
		return
	}
	stopProfiles := f.StartProfiles()
	defer stopProfiles()

	switch {
	case f.Faults != "":
		rep, err := hic.RunBuggyAnnotation(ctx, s, f.Options()...)
		if rep != nil {
			fmt.Print(rep.Render())
		}
		if err != nil {
			log.Fatal(err)
		}
	case *suite == "table1":
		out, err := hic.PatternTable(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
	case *suite == "overhead":
		rep := hic.StorageReport()
		if !f.JSON {
			fmt.Print(rep.Render())
		} else if err := rep.Document().Encode(os.Stdout); err != nil {
			log.Fatal(err)
		}
	default:
		runLocal(ctx, *suite, f, s)
	}
}

// validate rejects an unknown suite and every flag set on the command
// line that does nothing for it, then bad flag values.
func validate(suite string, f *cli.Flags) error {
	if _, ok := accepts[suite]; !ok {
		return fmt.Errorf("unknown -suite %q (want intra, inter, all, manycore, overhead, or table1)", suite)
	}
	mode := "-suite " + suite
	accepted := accepts[suite]
	if f.Faults != "" && suite == "all" {
		mode, accepted = "-faults", faultFlags
	}
	var err error
	flag.Visit(func(fl *flag.Flag) {
		if err != nil || inList(anySuite+" "+accepted, fl.Name) {
			return
		}
		err = fmt.Errorf("-%s does not apply to %s", fl.Name, mode)
	})
	if err != nil {
		return err
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if suite == "manycore" {
		if f.Blocks < 1 {
			return fmt.Errorf("-suite manycore requires -blocks N (N >= 1)")
		}
		if f.CoresPerBlock < 1 {
			return fmt.Errorf("-cores-per-block %d: want at least 1", f.CoresPerBlock)
		}
	}
	return nil
}

// inList reports whether name is a word of the space-separated list.
func inList(list, name string) bool {
	return strings.Contains(" "+list+" ", " "+name+" ")
}

// runRemote delegates the suite to the -server instance and prints the
// fetched document; -check then gates the decoded bytes exactly as it
// gates a local run.
func runRemote(ctx context.Context, suite string, f *cli.Flags) {
	req := serve.Request{Suite: suite}
	if suite != "overhead" {
		req.Scale = f.Scale
	}
	if suite == "manycore" {
		req.Blocks, req.CoresPerBlock = f.Blocks, f.CoresPerBlock
	}
	data, err := f.RunRemote(ctx, req, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if f.Check {
		doc, err := runner.Decode(bytes.NewReader(data))
		if err != nil {
			log.Fatalf("decoding served document: %v", err)
		}
		check(doc)
	}
}

// check runs the shapecheck gate on a results document, exiting nonzero
// on any violated ordering.
func check(doc *runner.Document) {
	vs := shapecheck.Check(doc)
	fmt.Fprint(os.Stderr, shapecheck.Render(vs))
	if len(vs) > 0 {
		os.Exit(1)
	}
}

// runLocal runs a results suite: the document goes to stdout with -json
// (partial on cell failures) and the text report otherwise; -check gates
// the document either way.
func runLocal(ctx context.Context, suite string, f *cli.Flags, s hic.Scale) {
	sw := sweep(ctx, suite, f, s)
	if f.JSON {
		if err := f.EncodeDoc(os.Stdout, sw.doc); err != nil {
			log.Fatal(err)
		}
	}
	if err := f.WriteTraces(sw.traces); err != nil {
		log.Fatal(err)
	}
	if sw.err != nil {
		log.Print(sw.err)
	} else if !f.JSON {
		sw.text()
	}
	if f.Check {
		check(sw.doc)
	}
	if sw.err != nil {
		os.Exit(1)
	}
}

// sweepResult is one results suite's outcome.
type sweepResult struct {
	doc    *runner.Document
	traces []obs.CellTrace
	text   func()
	err    error
}

func sweep(ctx context.Context, suite string, f *cli.Flags, s hic.Scale) sweepResult {
	opts := f.Options()
	workers := hic.NewRunOptions(opts...).Workers(1 << 30)
	switch suite {
	case "intra":
		res, err := hic.RunIntra(ctx, s, opts...)
		return sweepResult{res.Document(s), res.Traces, func() { printIntra(res) }, err}
	case "inter":
		res, err := hic.RunInter(ctx, s, opts...)
		return sweepResult{res.Document(s), res.Traces, func() { printInter(res) }, err}
	case "manycore":
		start := time.Now()
		res, err := hic.RunManycore(ctx, s, hic.ManycoreBlockCounts(f.Blocks), f.CoresPerBlock, opts...)
		wall := time.Since(start)
		return sweepResult{res.Document(s), nil, func() {
			fmt.Printf("== E7: block scaling (up to %d blocks x %d cores) ==============\n",
				f.Blocks, f.CoresPerBlock)
			fmt.Println(res.Curve.Render())
			fmt.Printf("sweep wall time (%d workers): %s\n", workers, wall.Round(time.Millisecond))
		}, err}
	}
	start := time.Now()
	intra, intraErr := hic.RunIntra(ctx, s, opts...)
	intraWall := time.Since(start)
	start = time.Now()
	inter, interErr := hic.RunInter(ctx, s, opts...)
	interWall := time.Since(start)
	return sweepResult{
		runner.Merge(intra.Document(s), inter.Document(s)),
		append(intra.Traces, inter.Traces...),
		func() {
			printAll(s, intra, inter)
			fmt.Printf("\nsweep wall time (%d workers): intra %s, inter %s\n",
				workers, intraWall.Round(time.Millisecond), interWall.Round(time.Millisecond))
		},
		errors.Join(intraErr, interErr),
	}
}

// printIntra renders Figures 9 and 10 with each bar's mean.
func printIntra(res *hic.IntraResult) {
	fmt.Println(res.Figure9.Render())
	printMeans("Figure 9 mean normalized execution time", res.Figure9)
	fmt.Println()
	fmt.Println(res.Figure10.Render())
	printMeans("Figure 10 mean normalized traffic", res.Figure10)
}

// printInter renders Figures 11 and 12 with Figure 12's bar means.
func printInter(res *hic.InterResult) {
	fmt.Println(res.Figure11.Render())
	fmt.Println(res.Figure12.Render())
	printMeans("Figure 12 mean normalized execution time", res.Figure12)
}

func printMeans(title string, f *hic.Figure) {
	fmt.Println(title + ":")
	if len(f.Groups) == 0 {
		return
	}
	means := f.MeanTotals()
	for _, b := range f.Groups[0].Bars {
		fmt.Printf("  %-8s %6.3f\n", b.Label, means[b.Label])
	}
}

// printAll renders the whole reproduction at scale s: Table I, the
// storage comparison, and Figures 9-12 against the paper's headline
// numbers.
func printAll(s hic.Scale, intra *hic.IntraResult, inter *hic.InterResult) {
	fmt.Println("== E1: Table I =================================================")
	table1, err := hic.PatternTable(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table1)

	fmt.Println("== E2: Section VII-A storage ===================================")
	fmt.Println(hic.StorageReport().Render())

	fmt.Println("== E3 + E4: intra-block (Figures 9, 10) ========================")
	fmt.Println(intra.Figure9.Render())
	m9 := intra.Figure9.MeanTotals()
	fmt.Printf("mean normalized execution time: Base %.3f (paper ~1.20), B+M+I %.3f (paper ~1.02)\n\n",
		m9["Base"], m9["B+M+I"])
	fmt.Println(intra.Figure10.Render())
	m10 := intra.Figure10.MeanTotals()
	fmt.Printf("mean normalized traffic: B+M+I %.3f (paper ~0.96)\n\n", m10["B+M+I"])

	fmt.Println("== E5 + E6: inter-block (Figures 11, 12) =======================")
	fmt.Println(inter.Figure11.Render())
	fmt.Println(inter.Figure12.Render())
	m12 := inter.Figure12.MeanTotals()
	fmt.Printf("mean normalized execution time: Base %.3f, Addr %.3f, Addr+L %.3f (paper: Addr+L ~1.05, -31%% vs Base, -5%% vs Addr)\n",
		m12["Base"], m12["Addr"], m12["Addr+L"])
}
