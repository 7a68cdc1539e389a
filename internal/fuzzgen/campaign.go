package fuzzgen

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/envelope"
	"repro/internal/litmus"
	"repro/internal/runner"
)

// Options parameterizes one fuzz campaign.
type Options struct {
	// SeedLo/SeedHi bound the seed range [SeedLo, SeedHi): one generated
	// program per seed.
	SeedLo, SeedHi uint64
	// MutantsPerProgram caps the under-annotated variants derived from
	// each program (default 2).
	MutantsPerProgram int
	// Configs is the configuration matrix (default: Base, B+M, B+I,
	// B+M+I — every incoherent buffer combination).
	Configs []litmus.Config
	// Parallel is the sweep worker count (<= 0 means GOMAXPROCS).
	Parallel int
	// FailSeeds forces the named seeds' first detected mutant through
	// the shrinker and fails the cell with a runner.ReproError — the
	// deterministic failure path the shrinker-reproducibility tests and
	// repro harvesting use.
	FailSeeds []uint64
}

func (o Options) withDefaults() Options {
	if o.MutantsPerProgram == 0 {
		o.MutantsPerProgram = 2
	}
	if len(o.Configs) == 0 {
		o.Configs = []litmus.Config{litmus.Base, litmus.BM, litmus.BI, litmus.BMI}
	}
	return o
}

// Detection is one detected mutant: the E10 table's raw material and
// the harvesting input for suite promotion.
type Detection struct {
	Seed uint64 `json:"seed"`
	// Config is the configuration the mutant ran under.
	Config string `json:"config"`
	// Mutation is the weakening class (drop-wb, weaken-notify, ...).
	Mutation string `json:"mutation"`
	// Thread/Index locate the mutation site.
	Thread int `json:"thread"`
	Index  int `json:"index"`
	// Violation is the oracle's class for the first violation.
	Violation string `json:"violation"`
	// Mutant names the mutated test.
	Mutant string `json:"mutant"`
}

// Report is the campaign's machine-readable outcome, serialized under
// the hic/v2 envelope with kind "fuzz".
type Report struct {
	Schema string        `json:"schema"`
	Kind   envelope.Kind `json:"kind"`
	SeedLo uint64        `json:"seed_lo"`
	SeedHi uint64        `json:"seed_hi"`
	// Programs and Mutants count what ran; Cells counts the (seed,
	// config) tasks whose annotated program passed.
	Programs int `json:"programs"`
	Mutants  int `json:"mutants"`
	Cells    int `json:"cells"`
	// Detected and Masked count mutants by mutation class and
	// configuration — the E10 detection-rate table.
	Detected map[string]map[string]int `json:"detected"`
	Masked   map[string]map[string]int `json:"masked"`
	// MaskReasons counts undetected mutants by masking-analysis verdict.
	MaskReasons map[string]int `json:"mask_reasons"`
	// Detections lists every detected mutant in task order.
	Detections []Detection `json:"detections,omitempty"`
	// Runs holds one record per (seed, config) cell, in task order;
	// failed cells carry error_kind "fuzz-repro" and a shrunk repro.
	Runs []runner.RunRecord `json:"runs"`
}

// Failed reports whether any cell failed: an annotated program with a
// violation or an engine divergence, or a mutant judged wrongly. The
// failed cells' run records carry the error and the shrunk repro.
func (rep *Report) Failed() bool {
	for _, r := range rep.Runs {
		if r.Error != "" {
			return true
		}
	}
	return false
}

// Encode writes the report as canonical JSON: host wall times are
// stripped, so identical campaigns encode identical bytes whatever the
// worker count. The report is not modified.
func (rep *Report) Encode(w io.Writer) error {
	canon := *rep
	canon.Runs = runner.StripWalls(rep.Runs)
	return envelope.Encode(w, &canon)
}

// EncodeTiming writes the report with host wall times included; the
// output is not deterministic across runs.
func (rep *Report) EncodeTiming(w io.Writer) error { return envelope.Encode(w, rep) }

// aggregate collects campaign statistics across workers. Counters
// commute, and ordered slices are keyed by cell so the final report is
// identical whatever the execution order — the campaign's reports must
// be byte-identical between 1 and N workers.
type aggregate struct {
	mu          sync.Mutex
	programs    int
	mutants     int
	cells       int
	detected    map[string]map[string]int
	masked      map[string]map[string]int
	maskReasons map[string]int
	detections  map[cellKey][]Detection
}

type cellKey struct {
	seed uint64
	cfg  int
}

func newAggregate() *aggregate {
	return &aggregate{
		detected:    map[string]map[string]int{},
		masked:      map[string]map[string]int{},
		maskReasons: map[string]int{},
		detections:  map[cellKey][]Detection{},
	}
}

func bump(m map[string]map[string]int, class, cfg string) {
	if m[class] == nil {
		m[class] = map[string]int{}
	}
	m[class][cfg]++
}

// Campaign generates, mutates, and checks every seed in the range under
// every configuration, through the runner so each (seed, config) cell
// is a first-class run record. A failed cell is data (Report.Failed); the
// error is ctx's, for a campaign canceled before all its cells ran.
func Campaign(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	agg := newAggregate()
	fail := make(map[uint64]bool, len(opts.FailSeeds))
	for _, s := range opts.FailSeeds {
		fail[s] = true
	}
	var tasks []runner.Task
	for seed := opts.SeedLo; seed < opts.SeedHi; seed++ {
		for ci, cfg := range opts.Configs {
			seed, ci, cfg := seed, ci, cfg
			tasks = append(tasks, runner.Task{
				Workload: fmt.Sprintf("s%d", seed),
				Config:   cfg.Name,
				Run: func(ctx context.Context) (*runner.Outcome, error) {
					return runCell(seed, ci, cfg, opts, agg, fail[seed])
				},
			})
		}
	}
	grid := runner.Run(ctx, tasks, runner.Options{Parallel: opts.Parallel})

	rep := &Report{
		Schema:      envelope.SchemaV2,
		Kind:        envelope.KindFuzz,
		SeedLo:      opts.SeedLo,
		SeedHi:      opts.SeedHi,
		Programs:    agg.programs,
		Mutants:     agg.mutants,
		Cells:       agg.cells,
		Detected:    agg.detected,
		Masked:      agg.masked,
		MaskReasons: agg.maskReasons,
		Runs:        grid.Records(),
	}
	for seed := opts.SeedLo; seed < opts.SeedHi; seed++ {
		for ci := range opts.Configs {
			rep.Detections = append(rep.Detections, agg.detections[cellKey{seed, ci}]...)
		}
	}
	return rep, ctx.Err()
}

// runCell checks one (seed, config) cell: the annotated program must be
// violation-free and engine-stable; each mutant must be detected with
// attribution or masked. Failures shrink to a minimal repro and surface
// as a *runner.ReproError.
func runCell(seed uint64, ci int, cfg litmus.Config, opts Options, agg *aggregate, forceFail bool) (*runner.Outcome, error) {
	p := Gen(seed)
	name := p.Test.Name

	ann := Check(p.Test, cfg)
	if ann.Err != nil {
		return nil, shrinkFailure(name, cfg, p.Test,
			Signature{Kind: "error", Class: errorClass(ann.Err)},
			fmt.Errorf("annotated program failed: %w", ann.Err))
	}
	if len(ann.Violations) > 0 {
		return nil, shrinkFailure(name, cfg, p.Test,
			Signature{Kind: "violation", Class: string(ann.Violations[0].Class)},
			fmt.Errorf("annotated program raised %d oracle violation(s); first: %v", len(ann.Violations), ann.Violations[0]))
	}
	if ann.Diverged != "" {
		return nil, shrinkFailure(name, cfg, p.Test, Signature{Kind: "diverge"},
			fmt.Errorf("annotated program diverged across engines: %s", ann.Diverged))
	}

	muts := Mutants(p, opts.MutantsPerProgram)
	agg.mu.Lock()
	agg.cells++
	if ci == 0 {
		agg.programs++
		agg.mutants += len(muts)
	}
	agg.mu.Unlock()

	var forced *Mutant
	var forcedSig Signature
	for i := range muts {
		m := muts[i]
		v := Judge(p, m, cfg)
		switch {
		case v.Err != nil:
			return nil, shrinkFailure(m.Test.Name, cfg, m.Test,
				Signature{Kind: "error", Class: errorClass(v.Err)},
				fmt.Errorf("mutant failed: %w", v.Err))
		case v.Diverged != "":
			return nil, shrinkFailure(m.Test.Name, cfg, m.Test, Signature{Kind: "diverge"},
				fmt.Errorf("mutant diverged across engines: %s", v.Diverged))
		case v.BadAttribution != "":
			return nil, shrinkFailure(m.Test.Name, cfg, m.Test,
				Signature{Kind: "violation", Class: string(v.Violations[0].Class)},
				fmt.Errorf("mutant detected with wrong attribution: %s", v.BadAttribution))
		case v.Detected:
			agg.mu.Lock()
			bump(agg.detected, m.Site.Class, cfg.Name)
			k := cellKey{seed, ci}
			agg.detections[k] = append(agg.detections[k], Detection{
				Seed: seed, Config: cfg.Name, Mutation: m.Site.Class,
				Thread: m.Site.Thread, Index: m.Site.Index,
				Violation: string(v.Violations[0].Class), Mutant: m.Test.Name,
			})
			agg.mu.Unlock()
			if forced == nil && forceFail {
				forced = &muts[i]
				forcedSig = Signature{Kind: "violation", Class: string(v.Violations[0].Class)}
			}
		default:
			agg.mu.Lock()
			bump(agg.masked, m.Site.Class, cfg.Name)
			agg.maskReasons[v.MaskReason]++
			agg.mu.Unlock()
		}
	}
	if forced != nil {
		return nil, shrinkFailure(forced.Test.Name, cfg, forced.Test, forcedSig,
			fmt.Errorf("fail-seed %d: forcing detected mutant through the shrinker", seed))
	}
	return &runner.Outcome{Result: ann.Result}, nil
}

// shrinkFailure reduces the failing program to a minimal repro and
// wraps the cause in a runner.ReproError, so the cell's run record is a
// self-contained regression test (error_kind "fuzz-repro").
func shrinkFailure(name string, cfg litmus.Config, t litmus.Test, sig Signature, cause error) error {
	shrunk := Shrink(t, cfg, sig)
	return &runner.ReproError{
		Workload: name,
		Config:   cfg.Name,
		Repro:    ReproText(shrunk, cfg, sig),
		Err:      cause,
	}
}
