// Package hic (hardware-incoherent caches) is the public API of this
// reproduction of "Architecting and Programming a Hardware-Incoherent
// Multiprocessor Cache Hierarchy" (Kim, Tavarageri, Sadayappan, Torrellas;
// IPDPS 2016).
//
// The package ties together the internal subsystems:
//
//   - internal/core — the paper's contribution: the hardware-incoherent
//     hierarchy with WB/INV instruction flavors, the MEB and IEB entry
//     buffers, and level-adaptive WB_CONS/INV_PROD;
//   - internal/mesi — the hardware-coherent (HCC) directory-MESI baseline;
//   - internal/engine — the deterministic execution-driven simulator;
//   - internal/annotate — Programming Model 1 (sync-point annotation);
//   - internal/compiler — Programming Model 2 (IR analysis + lowering);
//   - workloads under internal/apps.
//
// It exposes machine factories, the experiment runners that regenerate the
// paper's Table I, Section VII-A storage comparison, and Figures 9-12, and
// re-exports the types applications program against.
package hic

import (
	"repro/internal/annotate"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/levels"
	"repro/internal/mesi"
	"repro/internal/overhead"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Re-exported types: the surface applications and tools program against.
type (
	// Proc is the processor interface guest threads program against.
	Proc = engine.Proc
	// Guest is one guest thread's program.
	Guest = engine.Guest
	// Result is a run's timing and traffic outcome.
	Result = engine.Result
	// Hierarchy is the memory-system interface the engine drives.
	Hierarchy = engine.Hierarchy
	// Config is a Table II intra-block configuration.
	Config = annotate.Config
	// Pattern is the Table I sharing declaration for Model 1 programs.
	Pattern = annotate.Pattern
	// AnnotatedProc is the Model 1 annotated processor view.
	AnnotatedProc = annotate.P
	// App is a Model 1 application body.
	App = annotate.App
	// Mode is a Table II inter-block configuration.
	Mode = compiler.Mode
	// Workload is a self-verifying Model 1 benchmark application.
	Workload = workload.Workload
	// IRWorkload is a self-verifying Model 2 benchmark application.
	IRWorkload = compiler.IRWorkload
	// Machine is the physical machine layout.
	Machine = topo.Machine
	// Figure is a printable normalized stacked-bar reproduction of one of
	// the paper's figures.
	Figure = stats.Figure
)

// The Table II intra-block configurations.
var (
	HCC  = annotate.HCC
	Base = annotate.Base
	BM   = annotate.BM
	BI   = annotate.BI
	BMI  = annotate.BMI
	// IntraConfigs lists them in Figure 9's bar order.
	IntraConfigs = annotate.IntraConfigs
)

// The Table II inter-block configurations.
const (
	ModeHCC   = compiler.ModeHCC
	ModeBase  = compiler.ModeBase
	ModeAddr  = compiler.ModeAddr
	ModeAddrL = compiler.ModeAddrL
)

// InterModes lists them in Figure 12's bar order.
var InterModes = compiler.Modes

// NewIntraMachine returns the Table III single-block machine (16 cores),
// with the whole-cache traversal cost calibrated to the full-scale tag
// array (see scaledCacheConfig).
func NewIntraMachine() *Machine {
	m := topo.NewIntraBlock()
	m.Params.TraversalPerFrame = 4
	return m
}

// NewInterMachine returns the Table III four-block machine (4×8 cores),
// calibrated like NewIntraMachine.
func NewInterMachine() *Machine {
	m := topo.NewInterBlock()
	m.Params.TraversalPerFrame = 4
	return m
}

// Experiment cache scaling. The workloads are scaled down from the
// paper's inputs so cycle-level simulation stays fast; following the
// SPLASH-2 methodology, the experiment caches scale with them (working
// sets must exceed the L1 for the relative cost of whole-cache WB/INV to
// match the full-scale machine). Table III geometry — associativity,
// banking, latencies, MEB/IEB sizes — is unchanged; only capacities
// shrink. levels.DefaultConfig gives the full Table III capacities.
const (
	scaledL1Bytes   = 4 << 10   // per core (Table III: 32 KB)
	scaledL2PerCore = 16 << 10  // per L2 bank (Table III: 128 KB)
	scaledL3PerBank = 256 << 10 // per L3 bank (Table III: 4 MB)
)

func scaledCacheConfig(m *Machine) levels.Config {
	cfg := levels.Config{
		L1: cache.Config{Bytes: scaledL1Bytes, Ways: 4},
		L2: cache.Config{Bytes: scaledL2PerCore * m.CoresPerBlock, Ways: 8},
	}
	if m.L3Banks > 0 {
		cfg.L3 = cache.Config{Bytes: scaledL3PerBank * m.L3Banks, Ways: 8}
	}
	return cfg
}

// NewHierarchy builds the memory hierarchy for an intra-block
// configuration on machine m: the MESI baseline for HCC, otherwise the
// incoherent hierarchy with the configuration's entry buffers. Capacities
// follow the scaled experiment configuration (see scaledCacheConfig).
func NewHierarchy(m *Machine, cfg Config) Hierarchy {
	lc := scaledCacheConfig(m)
	if cfg.HCC {
		return mesi.New(m, lc)
	}
	c := core.Config{Config: lc, WriteThrough: cfg.WriteThrough, Bloom: cfg.UseBloom}
	if cfg.UseMEB {
		c.MEBEntries = 16
	}
	if cfg.UseIEB {
		c.IEBEntries = 4
	}
	return core.New(m, c)
}

// NewModeHierarchy builds the hierarchy for an inter-block mode on machine
// m. The Model 2 configurations do not use the entry buffers.
func NewModeHierarchy(m *Machine, mode Mode) Hierarchy {
	lc := scaledCacheConfig(m)
	if mode == ModeHCC {
		return mesi.New(m, lc)
	}
	return core.New(m, core.Config{Config: lc})
}

// StorageReport regenerates the Section VII-A control/storage comparison.
func StorageReport() *overhead.Report {
	return overhead.Compute(overhead.PaperMachine())
}

// WrapAnnotated builds the Programming Model 1 annotated view of p for a
// thread running under cfg with the sharing knowledge pat.
func WrapAnnotated(p Proc, cfg Config, pat Pattern) *AnnotatedProc {
	return annotate.Wrap(p, cfg, pat)
}

// AnnotatedGuests lowers a Model 1 application to engine guests for n
// threads under cfg and pat.
func AnnotatedGuests(n int, cfg Config, pat Pattern, app App) []Guest {
	return annotate.Guests(n, cfg, pat, app)
}
