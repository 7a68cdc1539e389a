// The buggy-annotation robustness experiment: deliberately sabotage the
// annotation discipline of every intra-block application with one
// deterministic fault per run and check that the coherence oracle
// detects and attributes the resulting violation. This is the
// falsifiability test for the whole reproduction — the paper's claim is
// that the annotations in Table I are *sufficient* for correctness, so a
// harness that cannot see a missing WB or INV could not support that
// claim. See DESIGN.md ("Robustness") and EXPERIMENTS.md.

package hic

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/runner"
)

// calibrate runs each application clean under every configuration a
// calibrated fault class targets, returning the results keyed
// "workload/config". The census of WB/INV-family instructions in these
// runs is what the calibrated plans index into. The runs are the intra
// sweep's cells under the caller's orchestration only: no fault plan,
// no checks, no recorder.
func calibrate(ctx context.Context, s Scale, classes []FaultClass, opts RunOptions) (map[string]*Result, error) {
	var need []Config
	for _, c := range classes {
		if c.Calibrate != nil && !slices.Contains(need, c.Config) {
			need = append(need, c.Config)
		}
	}
	clean := RunOptions{Parallel: opts.Parallel, Timeout: opts.Timeout}
	grid := runner.Run(ctx, intraTasks(s, clean, need), clean.runner())
	if err := grid.Err(); err != nil {
		return nil, fmt.Errorf("buggy-annotation calibration: %w", err)
	}
	out := map[string]*Result{}
	for _, c := range grid.Cells() {
		out[c.Workload+"/"+c.Config] = c.Outcome.Result
	}
	return out, nil
}

// FaultClasses are the canonical injected-bug classes of the
// buggy-annotation experiment, with the configuration each needs: the
// MEB and IEB classes only bite under the configurations whose
// annotations use those buffers. A class with Calibrate set gets its
// injection indices from a clean calibration run (see spreadIndices);
// the others carry a fixed plan.
var FaultClasses = []FaultClass{
	{Class: "drop-wb", Directive: "drop-wb", Calibrate: wbFamily, Config: Base},
	{Class: "delay-wb", Directive: "delay-wb", Calibrate: wbFamily, Config: Base},
	{Class: "skip-inv", Directive: "skip-inv", Calibrate: invFamily, Config: Base},
	{Class: "meb-cap", Plan: "meb-cap=1", Config: BM},
	{Class: "ieb-lie", Plan: iebLiePlan(), Config: BI},
}

// FaultClass describes one injected-bug class of the experiment.
type FaultClass struct {
	// Class labels the bug ("drop-wb", ...); it doubles as the grid's
	// config key.
	Class string
	// Plan is a fixed fault plan; empty when the class is calibrated.
	Plan string
	// Directive and Calibrate build the plan from a calibration run:
	// Calibrate counts the targeted instruction family in the clean
	// run's op census, and the plan injects Directive at a spread of
	// indices across that count (single faults at index 0 are almost
	// always masked — the apps' annotation discipline republishes or
	// re-invalidates the same lines a moment later).
	Directive string
	Calibrate func(r *Result) int64
	// Config is the Table II configuration the bug is injected under.
	Config Config
}

func wbFamily(r *Result) int64 {
	return r.Ops[isa.OpWB] + r.Ops[isa.OpWBAll] + r.Ops[isa.OpWBCons] + r.Ops[isa.OpWBConsAll]
}

func invFamily(r *Result) int64 {
	return r.Ops[isa.OpINV] + r.Ops[isa.OpINVAll] + r.Ops[isa.OpInvProd] + r.Ops[isa.OpInvProdAll]
}

// faultSpread is how many injection points a calibrated plan scatters
// across its instruction family.
const faultSpread = 8

// spreadIndices picks k injection points spread across the interior of
// [0, n): endpoints are avoided because a fault on the very first or
// very last instruction of a family tends to be masked (republished by
// the next whole-cache operation, or never read before the drain).
func spreadIndices(n int64, k int) []uint64 {
	if n <= 0 {
		return []uint64{0}
	}
	seen := make(map[uint64]bool)
	var out []uint64
	for i := 1; i <= k; i++ {
		idx := uint64(n) * uint64(i) / uint64(k+1)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// iebLiePlan lies at a ladder of lazy-invalidation decision indices: the
// decision count is load-driven and unknowable in advance, and most
// armed lookups cover lines whose data never changed (a harmless lie),
// so the plan scatters widely.
func iebLiePlan() string {
	var parts []string
	for _, i := range []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987} {
		parts = append(parts, fmt.Sprintf("ieb-lie@%d", i))
	}
	return strings.Join(parts, "; ")
}

// FaultMatrixEntry is one cell of the injected-fault ⇒ detected-violation
// matrix.
type FaultMatrixEntry struct {
	Workload string `json:"workload"`
	Class    string `json:"class"`
	// Plan is the canonical form of the injected plan.
	Plan   string `json:"plan"`
	Config string `json:"config"`
	// Injected counts the faults the run actually injected (0 means the
	// plan's index was never reached).
	Injected int64 `json:"injected"`
	// Violations counts the coherence violations the oracle observed.
	Violations int `json:"violations"`
	// Detected reports whether the run failed with a coherence error;
	// Kind is the runner error taxonomy label of whatever error the run
	// produced ("" when it passed — the fault was masked).
	Detected bool   `json:"detected"`
	Kind     string `json:"kind,omitempty"`
	Error    string `json:"error,omitempty"`
}

// FaultReport is the outcome of the buggy-annotation experiment.
type FaultReport struct {
	Scale   string
	Entries []FaultMatrixEntry
}

// Detection summarizes the matrix: injected cells, detected cells.
func (r *FaultReport) Detection() (injected, detected int) {
	for _, e := range r.Entries {
		if e.Injected > 0 {
			injected++
		}
		if e.Detected {
			detected++
		}
	}
	return injected, detected
}

// Undetected returns the entries whose injected fault produced no
// coherence error (masked faults).
func (r *FaultReport) Undetected() []FaultMatrixEntry {
	var out []FaultMatrixEntry
	for _, e := range r.Entries {
		if e.Injected > 0 && !e.Detected {
			out = append(out, e)
		}
	}
	return out
}

// Render formats the matrix as a text table.
func (r *FaultReport) Render() string {
	var b strings.Builder
	injected, detected := r.Detection()
	fmt.Fprintf(&b, "Buggy-annotation robustness matrix (scale %s): %d/%d injected faults detected\n",
		r.Scale, detected, injected)
	fmt.Fprintf(&b, "%-14s %-9s %-22s %-6s %8s %10s  %-8s %s\n",
		"app", "fault", "plan", "config", "injected", "violations", "detected", "error kind")
	for _, e := range r.Entries {
		mark := "no"
		if e.Detected {
			mark = "yes"
		}
		plan := e.Plan
		if n := strings.Count(plan, ";"); n > 0 && len(plan) > 22 {
			plan = fmt.Sprintf("%s +%d more", plan[:strings.Index(plan, ";")], n)
		}
		fmt.Fprintf(&b, "%-14s %-9s %-22s %-6s %8d %10d  %-8s %s\n",
			e.Workload, e.Class, plan, e.Config, e.Injected, e.Violations, mark, e.Kind)
	}
	return b.String()
}

// RunBuggyAnnotation injects each fault class into every intra-block
// application (one fault per run, oracle always attached) and reports the
// detection matrix. A WithFaultPlan option replaces the canonical
// per-class plans with that single plan, run under Base. The returned
// error covers harness failures only — detected coherence violations are
// the experiment's successful outcome and land in the report, not the
// error.
func RunBuggyAnnotation(ctx context.Context, s Scale, options ...Option) (*FaultReport, error) {
	opts := NewRunOptions(options...)
	classes := FaultClasses
	if opts.Faults != "" {
		classes = []FaultClass{{Class: "custom", Plan: opts.Faults, Config: Base}}
	}

	// Calibration pass: one clean run per (application, configuration)
	// a calibrated class needs, to census the instruction family its
	// plan indexes into.
	census, err := calibrate(ctx, s, classes, opts)
	if err != nil {
		return nil, err
	}

	type row struct {
		app   app[*Workload]
		class string
		plan  faultinject.Plan
		cfg   Config
	}
	var rows []row
	rep := &FaultReport{Scale: s.Name()}
	for _, a := range intraApps {
		for _, c := range classes {
			spec := c.Plan
			if c.Calibrate != nil {
				var parts []string
				for _, idx := range spreadIndices(c.Calibrate(census[a.name+"/"+c.Config.Name]), faultSpread) {
					parts = append(parts, fmt.Sprintf("%s@%d", c.Directive, idx))
				}
				spec = strings.Join(parts, "; ")
			}
			plan, err := faultinject.Parse(spec)
			if err != nil {
				return nil, fmt.Errorf("fault class %s: %w", c.Class, err)
			}
			rows = append(rows, row{app: a, class: c.Class, plan: plan, cfg: c.Config})
			rep.Entries = append(rep.Entries, FaultMatrixEntry{
				Workload: a.name, Class: c.Class,
				Plan: plan.String(), Config: c.Config.Name,
			})
		}
	}

	var tasks []runner.Task
	for i, r := range rows {
		tasks = append(tasks, runner.Task{
			Workload: rep.Entries[i].Workload,
			Config:   r.class,
			Run: func(ctx context.Context) (*runner.Outcome, error) {
				wl := r.app.build(s, intraThreads)
				h := NewHierarchy(NewIntraMachine(), r.cfg)
				ch, ok := h.(*core.Hierarchy)
				if !ok {
					return nil, fmt.Errorf("fault class %s: %s is not an incoherent hierarchy", r.class, r.cfg.Name)
				}
				st := faultinject.NewState(r.plan)
				ch.SetFaults(st)
				c := wl.Cell(h, r.cfg)
				c.Oracle = oracle.New(wl.Threads)
				c.Oracle.SetFaults(st)
				res, err := c.Run(ctx)
				// Each task owns exactly one entry, so concurrent tasks
				// never write the same slot; the runner's completion
				// barrier publishes the writes before assembly below.
				ent := &rep.Entries[i]
				ent.Injected = st.Injected()
				ent.Violations = c.Oracle.Total()
				if err != nil {
					return nil, err
				}
				return &runner.Outcome{Result: res}, nil
			},
		})
	}

	grid := runner.Run(ctx, tasks, opts.runner())
	var harness []string
	for i := range rows {
		ent := &rep.Entries[i]
		cell := grid.Get(ent.Workload, rows[i].class)
		if cell == nil || cell.Err == nil {
			continue
		}
		ent.Error = cell.Err.Error()
		ent.Kind = runner.ErrorKind(cell.Err)
		switch ent.Kind {
		case "coherence":
			ent.Detected = true
		case "error":
			// Verification failure without an oracle report: the fault
			// corrupted the answer but no checked read saw it happen.
			// Counted as undetected — the matrix is about the oracle.
		default:
			// Panics, timeouts, livelocks are harness failures, not
			// experiment outcomes.
			harness = append(harness, fmt.Sprintf("%s/%s: %s", ent.Workload, ent.Class, ent.Kind))
		}
	}
	if len(harness) > 0 {
		return rep, fmt.Errorf("buggy-annotation harness failures: %s", strings.Join(harness, "; "))
	}
	return rep, nil
}
