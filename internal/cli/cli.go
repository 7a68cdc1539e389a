// Package cli is the shared command-line surface of the hic tools. Every
// command used to declare its own copies of the common flags (-parallel,
// -timeout, -json, ...), which let their spellings, defaults, and help
// strings drift; here each command selects the shared flags it supports
// with a Mask and registers only its extras, and the parsed values
// convert to hic run options in one place.
//
// Typical use (see cmd/hicsim for a complete example):
//
//	f := cli.Register(flag.CommandLine, cli.SweepFlags)
//	suite := flag.String("suite", "all", "...")   // command-specific
//	flag.Parse()
//	if err := f.Validate(); err != nil { ... }
//	s, err := f.ScaleValue()
//	rep, err := hic.RunBuggyAnnotation(ctx, s, f.Options()...)
package cli

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	hic "repro"
	"repro/internal/obs"
)

// Mask selects which shared flags a command registers.
type Mask uint

const (
	// FlagScale is -scale (problem size).
	FlagScale Mask = 1 << iota
	// FlagParallel is -parallel (sweep worker count).
	FlagParallel
	// FlagTimeout is -timeout (per-run bound).
	FlagTimeout
	// FlagJSON is -json (machine-readable output).
	FlagJSON
	// FlagTiming is -timing (host wall times in -json output).
	FlagTiming
	// FlagCheck is -check (shapecheck gate).
	FlagCheck
	// FlagCoherence is -check-coherence (shadow-memory oracle).
	FlagCoherence
	// FlagFaults is -faults (deterministic fault injection).
	FlagFaults
	// FlagObs is -metrics and -trace-chrome (observability layer).
	FlagObs
	// FlagProfile is -cpuprofile and -memprofile.
	FlagProfile
	// FlagTopo is -blocks and -cores-per-block (custom machine
	// topology).
	FlagTopo
	// FlagExplore is -enumerate and -k (systematic litmus enumeration).
	FlagExplore
	// FlagServer is -server (run the sweep on a hicserve instance and
	// print the fetched document, byte-identical to a local -json run).
	FlagServer

	// SweepFlags is the full suite-command set (hicsim).
	SweepFlags = FlagScale | FlagParallel | FlagTimeout | FlagJSON | FlagTiming |
		FlagCheck | FlagCoherence | FlagFaults | FlagObs | FlagProfile |
		FlagTopo | FlagExplore | FlagServer
	// FuzzFlags is the fuzz-campaign set (hicfuzz): machine output plus
	// sweep parallelism and wall-time reporting.
	FuzzFlags = FlagParallel | FlagJSON | FlagTiming
)

// Flags holds the parsed shared flags. Fields whose flag was not
// selected by the mask keep their defaults.
type Flags struct {
	// Scale is the problem scale spelling ("test" or "bench").
	Scale string
	// Parallel is the sweep worker count (0 = GOMAXPROCS).
	Parallel int
	// Timeout bounds each individual run (0 = none).
	Timeout time.Duration
	// JSON selects machine-readable output.
	JSON bool
	// Timing includes host wall times in JSON output.
	Timing bool
	// Check evaluates the expected orderings and exits nonzero on
	// violation.
	Check bool
	// CheckCoherence attaches the coherence oracle to every run.
	CheckCoherence bool
	// Faults is the fault-injection plan ("matrix" or a plan string).
	Faults string
	// Metrics embeds observability snapshots in the run records.
	Metrics bool
	// TraceChrome writes a Chrome trace_event file of the sweep's stall
	// timelines to this path.
	TraceChrome string
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile, MemProfile string
	// Blocks is the largest block count of the many-core block-scaling
	// sweep.
	Blocks int
	// CoresPerBlock is the cores per block of the many-core machines.
	CoresPerBlock int
	// Enumerate sweeps the systematic litmus enumeration instead of the
	// curated suite.
	Enumerate bool
	// K is the enumeration op budget per program (with -enumerate).
	K int
	// Server is a hicserve base URL; when set the sweep runs remotely
	// and the fetched document is printed instead of computing locally.
	Server string
	// Tenant is the X-Hic-Tenant label sent with -server requests.
	Tenant string
}

// Register installs the shared flags selected by mask on fs and returns
// the destination Flags. Call it before registering command-specific
// extras so the shared spellings stay first in -help output.
func Register(fs *flag.FlagSet, mask Mask) *Flags {
	f := &Flags{Scale: "bench", K: 4}
	if mask&FlagScale != 0 {
		fs.StringVar(&f.Scale, "scale", f.Scale, "problem scale: test or bench")
	}
	if mask&FlagParallel != 0 {
		fs.IntVar(&f.Parallel, "parallel", f.Parallel, "worker count for the experiment sweeps (0 = GOMAXPROCS)")
	}
	if mask&FlagTimeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "per-run timeout (0 = none)")
	}
	if mask&FlagJSON != 0 {
		fs.BoolVar(&f.JSON, "json", false, "emit results as a machine-readable JSON document on stdout")
	}
	if mask&FlagTiming != 0 {
		fs.BoolVar(&f.Timing, "timing", false, "include host wall times in -json output (not deterministic)")
	}
	if mask&FlagCheck != 0 {
		fs.BoolVar(&f.Check, "check", false, "verify the paper's expected orderings; exit nonzero on violation")
	}
	if mask&FlagCoherence != 0 {
		fs.BoolVar(&f.CheckCoherence, "check-coherence", false, "attach the coherence oracle to every run")
	}
	if mask&FlagFaults != 0 {
		fs.StringVar(&f.Faults, "faults", "", `run the buggy-annotation experiment: "matrix" or a fault plan`)
	}
	if mask&FlagObs != 0 {
		fs.BoolVar(&f.Metrics, "metrics", false, "embed per-run observability snapshots in the JSON run records")
		fs.StringVar(&f.TraceChrome, "trace-chrome", "", "write a Chrome trace_event file of the sweep's stall timelines (open in Perfetto)")
	}
	if mask&FlagProfile != 0 {
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	if mask&FlagTopo != 0 {
		fs.IntVar(&f.Blocks, "blocks", 0, "largest block count of the many-core block-scaling sweep (powers of two up to it)")
		fs.IntVar(&f.CoresPerBlock, "cores-per-block", hic.DefaultManycoreCoresPerBlock, "cores per block of the many-core machines")
	}
	if mask&FlagExplore != 0 {
		fs.BoolVar(&f.Enumerate, "enumerate", false, "sweep every litmus shape up to -k ops instead of the curated suite")
		fs.IntVar(&f.K, "k", f.K, "op budget per enumerated program (with -enumerate)")
	}
	if mask&FlagServer != 0 {
		fs.StringVar(&f.Server, "server", "", "run on this hicserve base URL instead of locally (requires -json; bytes are identical)")
		fs.StringVar(&f.Tenant, "tenant", "", "tenant label sent with -server requests")
	}
	return f
}

// ScaleValue parses the -scale spelling.
func (f *Flags) ScaleValue() (hic.Scale, error) {
	switch f.Scale {
	case "bench":
		return hic.ScaleBench, nil
	case "test":
		return hic.ScaleTest, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want test or bench)", f.Scale)
}

// Validate rejects values the flag parser accepts but the tools do not
// (bad -scale spellings are reported by ScaleValue).
func (f *Flags) Validate() error {
	if f.K < 1 {
		return fmt.Errorf("-k %d: want an op budget of at least 1", f.K)
	}
	if f.Server != "" {
		// The server computes canonical documents with its own workers
		// and per-run bound; flags that change the output beyond what a
		// Request can express, or that only act on a local process,
		// cannot ride along.
		switch {
		case !f.JSON:
			return fmt.Errorf("-server requires -json (the server returns the machine-readable document)")
		case f.Parallel != 0 || f.Timeout != 0:
			return fmt.Errorf("-parallel and -timeout are incompatible with -server (the server uses its own)")
		case f.Timing:
			return fmt.Errorf("-timing is incompatible with -server (served documents are canonical, wall times stripped)")
		case f.TraceChrome != "":
			return fmt.Errorf("-trace-chrome is incompatible with -server (stall timelines stay on the server)")
		case f.CPUProfile != "" || f.MemProfile != "":
			return fmt.Errorf("profiling flags are incompatible with -server (profile the server process instead)")
		}
	}
	return nil
}

// Tracing reports whether the command should retain stall timelines.
func (f *Flags) Tracing() bool { return f.TraceChrome != "" }

// Options converts the orchestration flags and the -faults plan to
// functional run options for the robustness experiment; hicsim's suites
// reach their options through serve.Request instead. A -faults value
// other than "matrix" becomes a WithFaultPlan option ("matrix" selects
// RunBuggyAnnotation's canonical per-class plans, so it contributes no
// plan of its own).
func (f *Flags) Options() []hic.Option {
	opts := []hic.Option{
		hic.WithParallel(f.Parallel),
		hic.WithTimeout(f.Timeout),
	}
	if f.Faults != "" && f.Faults != "matrix" {
		opts = append(opts, hic.WithFaultPlan(f.Faults))
	}
	return opts
}

// WriteTraces writes the sweep's stall timelines to the -trace-chrome
// path (no-op when the flag is unset or no cell retained a timeline).
func (f *Flags) WriteTraces(traces []obs.CellTrace) error {
	if f.TraceChrome == "" {
		return nil
	}
	out, err := os.Create(f.TraceChrome)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(out, traces); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// StartProfiles begins the -cpuprofile capture and returns a stop
// function that ends it and writes the -memprofile snapshot; defer it
// from main. Profile-file failures are fatal via log.
func (f *Flags) StartProfiles() (stop func()) {
	var stopCPU func()
	if f.CPUProfile != "" {
		out, err := os.Create(f.CPUProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			log.Fatal(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			out.Close()
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
		}
		if f.MemProfile != "" {
			out, err := os.Create(f.MemProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer out.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(out); err != nil {
				log.Fatal(err)
			}
		}
	}
}
