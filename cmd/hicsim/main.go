// Command hicsim runs the complete reproduction — Table I, the Section
// VII-A storage comparison, and Figures 9 through 12 — and prints an
// EXPERIMENTS.md-style report comparing against the paper's headline
// numbers.
//
// Usage:
//
//	hicsim [-scale test|bench] [-parallel N] [-timeout D] [-json] [-timing] [-check]
//	       [-check-coherence] [-faults matrix|PLAN] [-metrics] [-trace-chrome F]
//	       [-cpuprofile F] [-memprofile F]
//	       [-blocks N] [-cores-per-block N] [-block-parallel] [-server URL]
//
// -block-parallel runs every incoherent-hierarchy simulation on the
// block-parallel engine — one event heap per block on its own goroutine
// between deterministic sync epochs. Output is byte-identical to the
// serial engine; fault-injected and recorder-attached runs silently fall
// back to it.
//
// -blocks N switches to the E7 many-core block-scaling sweep instead of
// the paper figures: Jacobi and NAS EP on machines of 1, 2, 4, ...
// blocks up to N, each with -cores-per-block cores (default 8), under
// Addr+L. `hicsim -blocks 128 -block-parallel` is the 1024-core sweep.
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
// figures: "matrix" injects the canonical fault classes (dropped and
// delayed writebacks, skipped invalidations, a lying IEB, an over-capped
// MEB) into every intra-block application; any other argument is a fault
// plan in the internal/faultinject grammar injected as-is. The detection
// matrix is printed and the command exits nonzero only on harness
// failures — detected violations are the experiment's successful
// outcome.
//
// With -json the figures and per-run metrics are emitted as a single
// machine-readable document on stdout (schema hic/v2, kind "results")
// instead of the text report; Table I and the storage report are
// text-only. The JSON is canonical — byte-identical for serial and
// parallel runs — unless -timing adds host wall times. With -check the
// paper's expected config-vs-config orderings (DESIGN.md §4) are
// evaluated against the results and the command exits nonzero on any
// violation; this is the gate CI runs.
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
// -server URL delegates the sweep to a hicserve instance (suite "all",
// or "manycore" with -blocks) and prints the fetched document —
// byte-identical to a local -json run; warm resubmits are answered from
// the server's content-addressed cache without re-simulating. -check
// still runs locally, against the fetched document.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	hic "repro"
	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/shapecheck"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hicsim: ")
	f := cli.Register(flag.CommandLine, cli.SweepFlags)
	flag.Parse()
	if err := f.Validate(); err != nil {
		log.Fatal(err)
	}
	s, err := f.ScaleValue()
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles := f.StartProfiles()
	defer stopProfiles()

	opts := f.Options()
	ctx := context.Background()

	if f.Server != "" {
		runRemote(ctx, f)
		return
	}

	if f.Blocks > 0 {
		runManycore(ctx, f, s, opts)
		return
	}

	if f.Faults != "" {
		rep, err := hic.RunBuggyAnnotation(ctx, s, opts...)
		if rep != nil {
			fmt.Print(rep.Render())
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	if f.JSON || f.Check || f.Tracing() {
		intra, intraErr := hic.RunIntra(ctx, s, opts...)
		inter, interErr := hic.RunInter(ctx, s, opts...)
		doc := runner.Merge(intra.Document(s), inter.Document(s))
		if f.JSON {
			if err := f.EncodeDoc(os.Stdout, doc); err != nil {
				log.Fatal(err)
			}
		}
		if err := f.WriteTraces(append(intra.Traces, inter.Traces...)); err != nil {
			log.Fatal(err)
		}
		for _, err := range []error{intraErr, interErr} {
			if err != nil {
				log.Print(err)
			}
		}
		if f.Check {
			vs := shapecheck.Check(doc)
			fmt.Fprint(os.Stderr, shapecheck.Render(vs))
			if len(vs) > 0 {
				os.Exit(1)
			}
		}
		if intraErr != nil || interErr != nil {
			os.Exit(1)
		}
		return
	}

	fmt.Println("== E1: Table I =================================================")
	table1, err := hic.PatternTable(hic.ScaleTest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table1)

	fmt.Println("== E2: Section VII-A storage ===================================")
	fmt.Println(hic.StorageReport().Render())

	fmt.Println("== E3 + E4: intra-block (Figures 9, 10) ========================")
	start := time.Now()
	intra, err := hic.RunIntra(ctx, s, opts...)
	if err != nil {
		log.Fatal(err)
	}
	intraWall := time.Since(start)
	fmt.Println(intra.Figure9.Render())
	m9 := intra.Figure9.MeanTotals()
	fmt.Printf("mean normalized execution time: Base %.3f (paper ~1.20), B+M+I %.3f (paper ~1.02)\n\n",
		m9["Base"], m9["B+M+I"])
	fmt.Println(intra.Figure10.Render())
	m10 := intra.Figure10.MeanTotals()
	fmt.Printf("mean normalized traffic: B+M+I %.3f (paper ~0.96)\n\n", m10["B+M+I"])

	fmt.Println("== E5 + E6: inter-block (Figures 11, 12) =======================")
	start = time.Now()
	inter, err := hic.RunInter(ctx, s, opts...)
	if err != nil {
		log.Fatal(err)
	}
	interWall := time.Since(start)
	fmt.Println(inter.Figure11.Render())
	fmt.Println(inter.Figure12.Render())
	m12 := inter.Figure12.MeanTotals()
	fmt.Printf("mean normalized execution time: Base %.3f, Addr %.3f, Addr+L %.3f (paper: Addr+L ~1.05, -31%% vs Base, -5%% vs Addr)\n",
		m12["Base"], m12["Addr"], m12["Addr+L"])
	fmt.Printf("\nsweep wall time (%d workers): intra %s, inter %s\n",
		hic.NewRunOptions(opts...).Workers(1<<30), intraWall.Round(time.Millisecond), interWall.Round(time.Millisecond))
}

// runRemote delegates the sweep to the -server instance and prints the
// fetched document. The shapecheck gate is not a server concern: -check
// decodes the fetched bytes and evaluates the orderings locally, so the
// gate behaves identically either way.
func runRemote(ctx context.Context, f *cli.Flags) {
	req := serve.Request{Suite: "all"}
	if f.Blocks > 0 {
		req = serve.Request{Suite: "manycore", Blocks: f.Blocks, CoresPerBlock: f.CoresPerBlock}
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
		vs := shapecheck.Check(doc)
		fmt.Fprint(os.Stderr, shapecheck.Render(vs))
		if len(vs) > 0 {
			os.Exit(1)
		}
	}
}

// runManycore executes the E7 block-scaling sweep selected by -blocks:
// power-of-two machines up to -blocks blocks of -cores-per-block cores,
// e.g. `hicsim -blocks 128 -cores-per-block 8 -block-parallel` for the
// 1024-core sweep. With -json the document (suite "manycore") is emitted
// on stdout; otherwise the normalized-execution-time curve is rendered
// as text.
func runManycore(ctx context.Context, f *cli.Flags, s hic.Scale, opts []hic.Option) {
	start := time.Now()
	res, err := hic.RunManycore(ctx, s, hic.ManycoreBlockCounts(f.Blocks), f.CoresPerBlock, opts...)
	wall := time.Since(start)
	if f.JSON {
		if res != nil {
			if encErr := f.EncodeDoc(os.Stdout, res.Document(s)); encErr != nil {
				log.Fatal(encErr)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== E7: block scaling (up to %d blocks x %d cores) ==============\n",
		f.Blocks, f.CoresPerBlock)
	fmt.Println(res.Curve.Render())
	fmt.Printf("sweep wall time (%d workers): %s\n",
		hic.NewRunOptions(opts...).Workers(1<<30), wall.Round(time.Millisecond))
}
