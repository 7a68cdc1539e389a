// Command hicsim runs the reproduction — Table I, the Section VII-A
// storage comparison, Figures 9 through 12, the many-core block-scaling
// sweep, the litmus suite and the annotation fuzz campaign — and prints
// either a text report or the machine-readable document.
//
// Usage:
//
//	hicsim [-suite intra|inter|all|manycore|litmus|overhead|fuzz|table1] [-scale test|bench]
//	       [-parallel N] [-timeout D] [-json] [-timing] [-check] [-check-coherence]
//	       [-faults matrix|PLAN] [-metrics] [-trace-chrome F]
//	       [-cpuprofile F] [-memprofile F]
//	       [-blocks N] [-cores-per-block N]
//	       [-test NAME] [-config NAME] [-budget N]
//	       [-enumerate] [-k N] [-seeds LO:HI] [-mutants N] [-corpus DIR]
//	       [-v] [-server URL [-tenant NAME]]
//
// -suite selects what runs, by the names hicserve's requests use:
//
//	intra     Figures 9 and 10 (intra-block time and traffic)
//	inter     Figures 11 and 12 (inter-block WB/INV counts and time)
//	all       (default) Table I, the storage comparison and Figures 9-12
//	manycore  the E9 block-scaling sweep: Jacobi and NAS EP on machines of
//	          1, 2, 4, ... blocks up to -blocks, each of -cores-per-block
//	          cores (default 8), under Addr+L
//	litmus    the litmus suite: every test in internal/litmus's table,
//	          explored through all thread interleavings under each
//	          configuration and checked against its allowed outcomes and
//	          the coherence oracle
//	overhead  the Section VII-A storage comparison (the incoherent
//	          hierarchy saves about 102 KB)
//	fuzz      the annotation-mutation campaign: random programs and
//	          their under-annotated mutants, checked under the coherence
//	          oracle and across the three execution engines
//	table1    Table I, the communication-pattern classification with a
//	          census of the synchronization operations each kernel executes
//
// Every suite but table1 is a serve.Request: the flags that describe
// the computation (-suite, -scale, -check-coherence, -metrics, -blocks,
// -cores-per-block, -test, -config, -budget, -enumerate, -k, -seeds,
// -mutants) each fill the field their name spells (-check-coherence
// fills coherence), Request.Normalize validates it — with the same
// message hicserve answers 400 with — and Request.Run computes it, the
// same method hicserve's workers call, unless -server sends it to a
// hicserve instance. A flag that does nothing for the chosen suite is an
// error, not ignored, even at its zero value: a request flag must fill a
// field the suite uses, by internal/serve's one scope table (serve.Uses),
// and hicsim's own flags have their per-suite lists here (-json and
// -server apply to every suite but table1, -parallel to every suite but
// overhead and table1, and table1 is text only); -timing needs -json, -v
// needs the text report (no -json), and -tenant needs -server.
// Normalize also bounds the sizes: -blocks up to serve.MaxBlocks,
// -cores-per-block up to serve.MaxCoresPerBlock, -k up to serve.MaxK
// and -seeds to serve.MaxSeeds seeds.
// `hicsim -suite manycore -blocks 128` runs machines up to 1024 cores.
//
// Runs, litmus explorations and fuzz cells fan out across -parallel
// workers (default GOMAXPROCS); results are identical to a serial sweep.
// -timeout bounds each individual run; a run that exceeds it fails its
// own cell instead of hanging the sweep. Neither may be negative.
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
// The litmus suite prints one verdict line per (test, configuration)
// pair; -v adds exploration statistics and the outcome histogram. -test
// and -config restrict the matrix; -budget bounds each schedule's
// scheduling decisions (0 means the explorer's default). Exploration uses dynamic
// partial-order reduction. -enumerate replaces the curated suite with the
// systematic enumeration of every litmus shape up to -k ops (default 4)
// and fails unless every annotated program explores violation-free to
// exhaustion. The exit status is nonzero iff any verdict fails — an
// annotated test with a violation, an under-annotated test whose bug no
// schedule exposed (or exposed with the wrong attribution), or a
// non-exhaustive exploration.
//
// The fuzz suite generates one program per seed of -seeds (default
// 1:201) and -mutants under-annotated variants of each (default 2). It
// fails, with exit status 1, unless every annotated program is
// violation-free, every mutant is detected with attribution or provably
// masked, and the three engines agree byte for byte; a failing cell
// shrinks to a minimal litmus-DSL repro (error_kind "fuzz-repro" in
// -json). -v prints every detection. -corpus DIR instead writes the
// seed range as `go test -fuzz FuzzAnnotatedProgram` corpus files.
//
// With -json the suite's document is emitted on stdout (schema hic/v2,
// kind "results", "litmus", "storage" for overhead, or "fuzz") instead
// of the text report. The JSON is canonical — byte-identical for serial
// and parallel runs — unless -timing adds host wall times. With -check the
// paper's expected config-vs-config orderings (DESIGN.md §4) are
// evaluated against the results document and the command exits nonzero
// on any violation; this is the gate CI runs.
//
// -metrics attaches the observability layer to every run and embeds each
// cell's deterministic snapshot (cache/MEB/IEB counters, NoC histograms,
// stall-cycle totals) in its JSON run record. -trace-chrome writes the
// sweep's per-core stall timelines as a Chrome trace_event file, one
// process per cell, viewable in Perfetto or chrome://tracing.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep, failing
// runs included (see DESIGN.md "Performance" for the profiling
// workflow); sweep goroutines are labeled workload/config, so `go tool
// pprof -tags` attributes samples to experiment cells.
//
// -server URL delegates the suite to a hicserve instance and prints the
// fetched document — byte-identical to a local -json run, with the same
// exit status; warm resubmits are answered from the server's
// content-addressed cache without re-simulating. The server uses its own
// -parallel and -timeout, so neither may be set. -check still runs
// locally, against the fetched document.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	hic "repro"
	"repro/internal/fuzzgen"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/shapecheck"
)

// Flag scopes, as space-separated flag names. The flags that fill a
// serve.Request field are each named for the field (see field); a suite
// that builds a Request takes those serve.Uses says it uses, and the
// lists below hold hicsim's own flags.
const (
	// anySuite flags apply to every suite.
	anySuite   = "suite cpuprofile memprofile"
	docFlags   = "json server tenant"
	sweepFlags = docFlags + " parallel timeout timing check"
	// faultFlags are those the robustness experiment (-faults within
	// suite all) uses; it builds no Request.
	faultFlags = "scale parallel timeout faults"
)

// accepts lists, per suite, the hicsim-only flags beyond anySuite that
// do something there; setting any other one is an error. table1 builds
// no Request, so its list holds every flag it uses.
var accepts = map[string]string{
	"intra":    sweepFlags + " trace-chrome",
	"inter":    sweepFlags + " trace-chrome",
	"all":      sweepFlags + " trace-chrome",
	"manycore": sweepFlags,
	"litmus":   docFlags + " parallel v",
	"overhead": docFlags,
	"fuzz":     docFlags + " parallel timing v corpus",
	"table1":   "scale",
}

// field returns the JSON name of the Request field the flag name fills:
// the flag's own name with "-" for "_", except -check-coherence. A
// hicsim-only flag names no field.
func field(flag string) string {
	if flag == "check-coherence" {
		return "coherence"
	}
	return strings.ReplaceAll(flag, "-", "_")
}

// options is hicsim's parsed command line: the request the flags that
// fill a serve.Request field bind to, and hicsim's own flags.
type options struct {
	req serve.Request
	// scale is req.Scale parsed, for the suites that simulate.
	scale                  hic.Scale
	parallel               int
	timeout                time.Duration
	json, timing, check    bool
	verbose                bool
	faults                 string
	corpus                 string
	traceChrome            string
	cpuProfile, memProfile string
	server, tenant         string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hicsim: ")
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

// run is the whole command and returns its exit status. Every path out
// of it, failing ones included, first stops the -cpuprofile capture and
// writes the -memprofile snapshot.
func run(fs *flag.FlagSet, args []string) (code int) {
	o, err := parse(fs, args)
	if err != nil {
		return fail(err)
	}
	ctx := context.Background()

	if o.server != "" {
		return remote(ctx, o)
	}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			code = fail(err)
		}
	}()

	switch {
	case o.faults != "":
		rep, err := hic.RunBuggyAnnotation(ctx, o.scale, o.faultOptions()...)
		if rep != nil {
			fmt.Print(rep.Render())
		}
		if err != nil {
			return fail(err)
		}
	case o.corpus != "":
		lo, hi := o.req.SeedRange()
		if err := writeCorpus(o.corpus, lo, hi); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %d corpus inputs to %s\n", hi-lo, o.corpus)
	case o.req.Suite == "table1":
		out, err := hic.PatternTable(o.scale)
		if err != nil {
			return fail(err)
		}
		fmt.Print(out)
	default:
		return local(ctx, o)
	}
	return 0
}

// fail logs err and returns the failing exit status.
func fail(err error) int {
	log.Print(err)
	return 1
}

// parse declares hicsim's flags on fs, parses args and validates them.
// main passes flag.CommandLine, which exits on a syntax error or -h.
func parse(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	r := &o.req
	fs.StringVar(&r.Suite, "suite", "all", "what to run: intra, inter, all, manycore, litmus, overhead, fuzz, or table1")
	fs.StringVar(&r.Scale, "scale", "bench", "problem scale: test or bench")
	fs.IntVar(&o.parallel, "parallel", 0, "worker count for the experiment sweeps, litmus explorations and fuzz cells (0 = GOMAXPROCS; not negative)")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-run timeout (0 = none; not negative)")
	fs.BoolVar(&o.json, "json", false, "emit results as a machine-readable JSON document on stdout")
	fs.BoolVar(&o.timing, "timing", false, "include host wall times in -json output (not deterministic)")
	fs.BoolVar(&o.check, "check", false, "verify the paper's expected orderings; exit nonzero on violation")
	fs.BoolVar(&r.Coherence, "check-coherence", false, "attach the coherence oracle to every run")
	fs.StringVar(&o.faults, "faults", "", `run the buggy-annotation experiment: "matrix" or a fault plan`)
	fs.BoolVar(&r.Metrics, "metrics", false, "embed per-run observability snapshots in the JSON run records")
	fs.StringVar(&o.traceChrome, "trace-chrome", "", "write a Chrome trace_event file of the sweep's stall timelines (open in Perfetto)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.IntVar(&r.Blocks, "blocks", 0, "largest block count of the many-core block-scaling sweep (powers of two up to it)")
	fs.IntVar(&r.CoresPerBlock, "cores-per-block", 0, fmt.Sprintf("cores per block of the many-core machines (default %d)", hic.DefaultManycoreCoresPerBlock))
	fs.StringVar(&r.Test, "test", "", "run only the named litmus suite test")
	fs.StringVar(&r.Config, "config", "", "run only the named litmus or fuzz configuration (Base, B+M, B+I, B+M+I, Adaptive)")
	fs.IntVar(&r.Budget, "budget", 0, "per-schedule litmus step budget (0 = default)")
	fs.BoolVar(&r.Enumerate, "enumerate", false, "sweep every litmus shape up to -k ops instead of the curated suite")
	fs.IntVar(&r.K, "k", 0, "op budget per enumerated program (with -enumerate; default 4)")
	fs.StringVar(&r.Seeds, "seeds", "", "fuzz seed range LO:HI (half-open; one program per seed; default 1:201)")
	fs.IntVar(&r.Mutants, "mutants", 0, "under-annotated fuzz mutants derived per program (default 2)")
	fs.StringVar(&o.corpus, "corpus", "", "write the fuzz seed range as Go fuzz corpus files into this directory")
	fs.BoolVar(&o.verbose, "v", false, "print litmus exploration statistics and outcome histograms, or every fuzz detection")
	fs.StringVar(&o.server, "server", "", "run on this hicserve base URL instead of locally (requires -json; bytes are identical)")
	fs.StringVar(&o.tenant, "tenant", "", "tenant label sent with -server requests")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate(fs)
}

// validate checks the flags set on fs. Each must be one hicsim uses
// for the suite (accepts) or, on a suite that builds a Request, fill a
// field the suite uses (serve.Uses), even when set to its zero value,
// which Request.Normalize cannot tell from unset. Normalize then judges
// the request's values, with the message hicserve answers 400 with.
func (o *options) validate(fs *flag.FlagSet) error {
	r := &o.req
	accepted, ok := accepts[r.Suite]
	if !ok {
		return fmt.Errorf("unknown -suite %q (want intra, inter, all, manycore, litmus, overhead, fuzz, or table1)", r.Suite)
	}
	scope, served := "-suite "+r.Suite, r.Suite != "table1"
	switch {
	case o.faults != "" && r.Suite == "all":
		scope, accepted, served = "-faults", faultFlags, false
	case o.corpus != "" && r.Suite == "fuzz":
		scope, accepted, served = "-corpus", "corpus seeds", false
	}
	set := map[string]bool{}
	var err error
	fs.Visit(func(fl *flag.Flag) {
		set[fl.Name] = true
		if err == nil && !inList(anySuite+" "+accepted, fl.Name) && !(served && serve.Uses(r.Suite, field(fl.Name))) {
			err = fmt.Errorf("-%s does not apply to %s", fl.Name, scope)
		}
	})
	switch {
	case err != nil:
		return err
	case o.parallel < 0:
		return fmt.Errorf("-parallel %d: must not be negative", o.parallel)
	case o.timeout < 0:
		return fmt.Errorf("-timeout %s: must not be negative", o.timeout)
	case scope == "-corpus":
		if !set["seeds"] {
			r.Seeds = "1:201" // the campaign's default; a corpus has no seed bound
		}
		_, _, err := serve.ParseSeeds(r.Seeds)
		return err
	// Normalize fills a zero -k or -seeds with its default, so an
	// explicit one is refused here.
	case set["k"] && r.K < 1:
		return fmt.Errorf("-k %d: want an op budget of at least 1", r.K)
	case set["seeds"] && r.Seeds == "":
		return fmt.Errorf(`-seeds "": want LO:HI`)
	}
	// hicsim's bench scale applies wherever a scale does.
	if !set["scale"] && served && !r.Simulation() {
		r.Scale = ""
	}
	if err := o.refuseWithServer(); err != nil {
		return err
	}
	if set["tenant"] && o.server == "" {
		return fmt.Errorf("-tenant requires -server (it labels the requests sent to a hicserve instance)")
	}
	if set["timing"] && !o.json {
		return fmt.Errorf("-timing requires -json (it adds host wall times to the document)")
	}
	if set["v"] && o.json {
		return fmt.Errorf("-v does not apply to -json (it adds detail to the text report)")
	}
	if served {
		if r.K != 0 && !r.Enumerate {
			return fmt.Errorf("-k applies to -suite litmus -enumerate only")
		}
		if err := r.Normalize(); err != nil {
			return err
		}
		if !r.Simulation() {
			return nil
		}
	}
	switch r.Scale {
	case "bench":
		o.scale = hic.ScaleBench
	case "test":
		o.scale = hic.ScaleTest
	default:
		return fmt.Errorf("unknown scale %q (want test or bench)", r.Scale)
	}
	return nil
}

// refuseWithServer rejects, with -server, the flags the server cannot
// honor: it computes canonical documents with its own workers and
// per-run bound, so flags that change the output beyond what a Request
// can express, or that only act on a local process, cannot ride along.
func (o *options) refuseWithServer() error {
	switch {
	case o.server == "":
		return nil
	case !o.json:
		return fmt.Errorf("-server requires -json (the server returns the machine-readable document)")
	case o.parallel != 0 || o.timeout != 0:
		return fmt.Errorf("-parallel and -timeout are incompatible with -server (the server uses its own)")
	case o.timing:
		return fmt.Errorf("-timing is incompatible with -server (served documents are canonical, wall times stripped)")
	case o.traceChrome != "":
		return fmt.Errorf("-trace-chrome is incompatible with -server (stall timelines stay on the server)")
	case o.cpuProfile != "" || o.memProfile != "":
		return fmt.Errorf("profiling flags are incompatible with -server (profile the server process instead)")
	}
	return nil
}

// faultOptions returns the robustness experiment's run options.
// "matrix" selects RunBuggyAnnotation's canonical per-class plans, so
// it contributes no plan of its own; any other -faults value is one.
func (o *options) faultOptions() []hic.Option {
	opts := []hic.Option{hic.WithParallel(o.parallel), hic.WithTimeout(o.timeout)}
	if o.faults != "matrix" {
		opts = append(opts, hic.WithFaultPlan(o.faults))
	}
	return opts
}

// startProfiles begins the -cpuprofile capture and returns a stop
// function that ends it and writes the -memprofile snapshot; run defers
// it.
func startProfiles(cpuProfile, memProfile string) (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if cpuProfile != "" {
		out, err := os.Create(cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return nil, err
		}
		stopCPU = func() error {
			pprof.StopCPUProfile()
			return out.Close()
		}
	}
	return func() error {
		if err := stopCPU(); err != nil || memProfile == "" {
			return err
		}
		out, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(out); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	}, nil
}

// writeTraces writes the sweep's stall timelines to path as a Chrome
// trace_event file.
func writeTraces(path string, traces []obs.CellTrace) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(out, traces); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// inList reports whether name is a word of the space-separated list.
func inList(list, name string) bool {
	return strings.Contains(" "+list+" ", " "+name+" ")
}

// remote runs the request on the -server instance and prints the
// fetched document. -check then gates the decoded bytes exactly as it
// gates a local run, and a failed litmus verdict or fuzz cell exits
// nonzero as it does locally. It returns the exit status.
func remote(ctx context.Context, o *options) int {
	c := &serve.Client{BaseURL: o.server, Tenant: o.tenant}
	data, err := c.Run(ctx, o.req)
	if err != nil {
		return fail(err)
	}
	if _, err := os.Stdout.Write(data); err != nil {
		return fail(err)
	}
	var res serve.Result
	switch {
	case o.check: // only the results suites take -check
		res.Doc, err = runner.Decode(bytes.NewReader(data))
	case o.req.Suite == "litmus":
		res.Litmus = &litmus.Document{}
		err = json.Unmarshal(data, res.Litmus)
	case o.req.Suite == "fuzz":
		res.Fuzz = &fuzzgen.Report{}
		err = json.Unmarshal(data, res.Fuzz)
	}
	if err != nil {
		return fail(fmt.Errorf("decoding served document: %v", err))
	}
	if (o.check && !check(res.Doc)) || res.Failed() {
		return 1
	}
	return 0
}

// check runs the shapecheck gate on a results document and reports
// whether every ordering holds.
func check(doc *runner.Document) bool {
	vs := shapecheck.Check(doc)
	fmt.Fprint(os.Stderr, shapecheck.Render(vs))
	return len(vs) == 0
}

// env is the execution context of a local run: -parallel workers (for
// the simulation sweeps, litmus explorations and fuzz cells alike), the
// -timeout per-run bound, and stall timelines when -trace-chrome wants
// them.
func (o *options) env() serve.Env {
	return serve.Env{Parallel: o.parallel, Timeout: o.timeout, Trace: o.traceChrome != ""}
}

// local computes the request in this process with the Request.Run the
// server's workers call. The document goes to stdout with -json
// (partial on cell failures) and the text report otherwise; -check
// gates a results document either way. It returns the exit status.
func local(ctx context.Context, o *options) int {
	res, err := o.req.Run(ctx, o.env())
	if res == nil {
		return fail(err)
	}
	if o.json {
		write := res.Encode
		if o.timing {
			write = res.EncodeTiming
		}
		if err := write(os.Stdout); err != nil {
			return fail(err)
		}
	}
	if o.traceChrome != "" {
		if err := writeTraces(o.traceChrome, res.Traces); err != nil {
			return fail(err)
		}
	}
	if err == nil && !o.json {
		err = report(o, res)
	}
	if err != nil {
		log.Print(err)
	}
	if (o.check && !check(res.Doc)) || err != nil || res.Failed() {
		return 1
	}
	return 0
}

// report prints a local result's text report.
func report(o *options, res *serve.Result) error {
	workers := hic.NewRunOptions(hic.WithParallel(o.parallel)).Workers(1 << 30)
	switch o.req.Suite {
	case "intra":
		printIntra(res.Intra)
	case "inter":
		printInter(res.Inter)
	case "all":
		if err := printAll(o.scale, res.Intra, res.Inter); err != nil {
			return err
		}
		fmt.Printf("\nsweep wall time (%d workers): intra %s, inter %s\n",
			workers, res.Walls[0].Round(time.Millisecond), res.Walls[1].Round(time.Millisecond))
	case "manycore":
		fmt.Printf("== E9: block scaling (up to %d blocks x %d cores) ==============\n",
			o.req.Blocks, o.req.CoresPerBlock)
		fmt.Println(res.Manycore.Curve.Render())
		fmt.Printf("sweep wall time (%d workers): %s\n", workers, res.Walls[0].Round(time.Millisecond))
	case "litmus":
		printLitmus(res.Litmus, o.verbose)
	case "overhead":
		fmt.Print(res.Storage.Render())
	case "fuzz":
		printReport(res.Fuzz, o.verbose)
	}
	return nil
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
// histogram, and — under -v or on failure — the detections, the failed
// cells with their shrunk repros, and a closing FAIL line.
func printReport(rep *fuzzgen.Report, verbose bool) {
	fmt.Printf("fuzz: seeds [%d,%d): %d programs, %d mutants, %d cells\n",
		rep.SeedLo, rep.SeedHi, rep.Programs, rep.Mutants, rep.Cells)

	classes := map[string]bool{}
	configs := map[string]bool{}
	for _, counts := range []map[string]map[string]int{rep.Detected, rep.Masked} {
		for class, byCfg := range counts {
			classes[class] = true
			for cfg := range byCfg {
				configs[cfg] = true
			}
		}
	}
	for _, class := range slices.Sorted(maps.Keys(classes)) {
		fmt.Printf("  %-16s", class)
		for _, cfg := range slices.Sorted(maps.Keys(configs)) {
			det := rep.Detected[class][cfg]
			tot := det + rep.Masked[class][cfg]
			fmt.Printf("  %s %d/%d", cfg, det, tot)
		}
		fmt.Println()
	}
	if len(rep.MaskReasons) > 0 {
		fmt.Printf("  masked:")
		for _, reason := range slices.Sorted(maps.Keys(rep.MaskReasons)) {
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
	var errs []string
	for _, r := range rep.Runs {
		if r.Error == "" {
			continue
		}
		errs = append(errs, r.Error)
		fmt.Printf("FAIL %s/%s: %s\n", r.Workload, r.Config, r.Error)
		if r.Repro != "" {
			fmt.Println("  " + strings.ReplaceAll(strings.TrimRight(r.Repro, "\n"), "\n", "\n  "))
		}
	}
	if len(errs) > 0 { // the first line of the joined cell errors
		first, _, cut := strings.Cut(strings.Join(errs, "\n"), "\n")
		if cut {
			first += " ..."
		}
		fmt.Printf("FAIL: %s\n", first)
	}
}

// printLitmus renders the litmus text report: one verdict line per
// (test, configuration) pair, or one line per configuration sweep with
// -enumerate, plus exploration statistics with -v.
func printLitmus(doc *litmus.Document, verbose bool) {
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
	for _, st := range doc.Sweeps {
		ok := len(st.Stats.Violating) == 0 && len(st.Stats.Failed) == 0
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("%s enumerate k=%d config=%s: %d programs, %d mutants\n",
			status, st.K, st.Config, st.Stats.Programs, st.Stats.Mutants)
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

// printAll renders the whole reproduction at scale s: Table I (its
// census taken from the intra sweep's Base cells), the storage
// comparison, and Figures 9-12 against the paper's headline numbers.
func printAll(s hic.Scale, intra *hic.IntraResult, inter *hic.InterResult) error {
	fmt.Println("== E1: Table I =================================================")
	table1, err := intra.PatternTable(s)
	if err != nil {
		return err
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
	return nil
}
