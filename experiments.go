package hic

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/apps/jacobi"
	"repro/internal/apps/nas"
	"repro/internal/apps/splash"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale selects the experiment problem sizes.
type Scale int

const (
	// ScaleTest runs quickly (unit tests, smoke checks).
	ScaleTest Scale = iota
	// ScaleBench is the scale the benchmark harness reports.
	ScaleBench
)

// Name returns the scale's flag spelling ("test", "bench").
func (s Scale) Name() string {
	if s == ScaleBench {
		return "bench"
	}
	return "test"
}

func splashSize(s Scale) splash.Size {
	if s == ScaleBench {
		return splash.Bench
	}
	return splash.Test
}

func nasSize(s Scale) nas.Size {
	if s == ScaleBench {
		return nas.Bench
	}
	return nas.Test
}

func jacobiSize(s Scale) jacobi.Size {
	if s == ScaleBench {
		return jacobi.Bench
	}
	return jacobi.Test
}

// app is one entry of a suite's application table: the application's
// name and its constructor. The name is the one the constructor sets, so
// a sweep lists and filters its cells without building anything, and
// each cell builds only its own application.
type app[W any] struct {
	name  string
	build func(s Scale, threads int) W
}

// Thread counts of the intra- and inter-block evaluations (Table III).
const (
	intraThreads = 16
	interThreads = 32
)

// intraApps is the intra-block suite: the eleven SPLASH-2 variants, in
// Figure 9's order.
var intraApps = []app[*Workload]{
	{"fft", func(s Scale, n int) *Workload { return splash.FFT(splashSize(s), n) }},
	{"lu-cont", func(s Scale, n int) *Workload { return splash.LU(splashSize(s), n, true) }},
	{"lu-noncont", func(s Scale, n int) *Workload { return splash.LU(splashSize(s), n, false) }},
	{"cholesky", func(s Scale, n int) *Workload { return splash.Cholesky(splashSize(s), n) }},
	{"barnes", func(s Scale, n int) *Workload { return splash.Barnes(splashSize(s), n) }},
	{"raytrace", func(s Scale, n int) *Workload { return splash.Raytrace(splashSize(s), n) }},
	{"volrend", func(s Scale, n int) *Workload { return splash.Volrend(splashSize(s), n) }},
	{"ocean-cont", func(s Scale, n int) *Workload { return splash.Ocean(splashSize(s), n, true) }},
	{"ocean-noncont", func(s Scale, n int) *Workload { return splash.Ocean(splashSize(s), n, false) }},
	{"water-nsq", func(s Scale, n int) *Workload { return splash.Water(splashSize(s), n, false) }},
	{"water-sp", func(s Scale, n int) *Workload { return splash.Water(splashSize(s), n, true) }},
}

// The Model 2 applications. EP and Jacobi run in both the inter-block
// and the block-scaling suite.
var (
	epApp     = app[*IRWorkload]{"ep", func(s Scale, n int) *IRWorkload { return nas.EP(nasSize(s), n) }}
	jacobiApp = app[*IRWorkload]{"jacobi", func(s Scale, n int) *IRWorkload { return jacobi.New(jacobiSize(s), n) }}
	// interApps is the inter-block suite, in Figure 12's order.
	interApps = []app[*IRWorkload]{
		epApp,
		{"is", func(s Scale, n int) *IRWorkload { return nas.IS(nasSize(s), n) }},
		{"cg", func(s Scale, n int) *IRWorkload { return nas.CG(nasSize(s), n) }},
		jacobiApp,
	}
	// manycoreApps is the block-scaling suite (manycore.go).
	manycoreApps = []app[*IRWorkload]{jacobiApp, epApp}
)

// buildAll constructs every application of a table, in table order.
func buildAll[W any](apps []app[W], s Scale, threads int) []W {
	ws := make([]W, len(apps))
	for i, a := range apps {
		ws[i] = a.build(s, threads)
	}
	return ws
}

// selected returns the apps an Only filter names, in table order; an
// empty filter selects them all, and unknown names are ignored.
func selected[W any](apps []app[W], only []string) []app[W] {
	if len(only) == 0 {
		return apps
	}
	var out []app[W]
	for _, a := range apps {
		if slices.Contains(only, a.name) {
			out = append(out, a)
		}
	}
	return out
}

// IntraWorkloads returns the eleven SPLASH-2 application variants of the
// intra-block evaluation at the given scale, on 16 threads (Table III).
func IntraWorkloads(s Scale) []*Workload { return buildAll(intraApps, s, intraThreads) }

// InterWorkloads returns the four Model 2 applications of the inter-block
// evaluation at the given scale, on 32 threads (Table III).
func InterWorkloads(s Scale) []*IRWorkload { return buildAll(interApps, s, interThreads) }

// IntraCells lists the intra-block sweep's (workload, config) cells in
// task order, the order of its run records, keeping the workloads only
// names as RunOptions.Only does. The labels are read off the task list
// the sweep runs; cells are the same at every scale, and listing them
// builds no application.
func IntraCells(only ...string) [][2]string {
	return taskCells(intraTasks(ScaleTest, RunOptions{Only: only}, IntraConfigs))
}

// InterCells lists the inter-block sweep's cells like IntraCells.
func InterCells(only ...string) [][2]string {
	return taskCells(interTasks(ScaleTest, RunOptions{Only: only}))
}

// taskCells returns the (workload, config) labels of a task list.
func taskCells(tasks []runner.Task) [][2]string {
	cells := make([][2]string, len(tasks))
	for i, t := range tasks {
		cells[i] = [2]string{t.Workload, t.Config}
	}
	return cells
}

// RunOptions controls a sweep: orchestration (worker count, per-run
// timeout) plus the robustness checks (coherence oracle, fault
// injection). The zero value runs with GOMAXPROCS workers, no timeout,
// and no checks.
type RunOptions struct {
	// Parallel is the worker count; values <= 0 mean GOMAXPROCS.
	Parallel int
	// Timeout bounds each individual run; 0 means none. See
	// runner.Options.
	Timeout time.Duration
	// CheckCoherence attaches the shadow-memory coherence oracle
	// (internal/oracle) to every run: each load is checked against the
	// happens-before-legal value set, and a violation fails the cell
	// with a coherence error.
	CheckCoherence bool
	// Faults is a deterministic fault plan in the internal/faultinject
	// grammar ("drop-wb@0; meb-cap=1; seed=7"), injected into every
	// incoherent-hierarchy run; HCC runs have no WB/INV to sabotage and
	// are skipped. A non-empty plan implies the oracle, so injected
	// faults are detected and attributed.
	Faults string
	// Metrics attaches an observability recorder (internal/obs) to every
	// run and embeds its deterministic snapshot in the cell's RunRecord:
	// cache hit/miss/eviction counters, MEB/IEB events and occupancy
	// high-water marks, NoC latency histograms, and per-kind stall-cycle
	// totals that reconcile exactly with the result's Stalls breakdown.
	Metrics bool
	// Trace additionally retains the bounded per-core stall-span timeline
	// and occupancy sample tracks for Chrome trace_event export (implies
	// the same recorder as Metrics; snapshots are embedded only when
	// Metrics is also set).
	Trace bool
	// Observer, when non-nil, is called with each cell's recorder after
	// its run completes (successfully or not), before snapshots are
	// taken for the outcome. The recorder is nil unless Metrics or Trace
	// is set: an Observer alone (a progress callback) records nothing,
	// so it keeps the engine's private-op fast path.
	Observer func(workload, config string, rec *obs.Recorder)
	// Only, when non-empty, restricts a sweep to the named workloads
	// (unknown names are ignored). Figures are built from the cells that
	// ran; absent applications simply contribute no groups. The -short
	// regression paths use this to avoid re-simulating full sweeps.
	Only []string
	// Cache, when non-nil, is a content-addressed result cache: before a
	// cell simulates, its runner.CellKey hash is looked up, and a hit
	// returns the stored outcome with zero engine steps. Determinism
	// makes hits exact — the key covers everything that can change the
	// outcome (workload, config, topology, scale, fault plan, seed, the
	// result-affecting options, and the code version), and orchestration
	// options are excluded, and so is the Observer. Traced sweeps bypass
	// the cache, and the Observer callback fires only for cells that
	// simulate, never for cells served from it.
	Cache *runner.MemCache
	// Seed salts the cache key. Current workloads are deterministic and
	// ignore it; it exists so stochastic workloads can join the
	// content-addressing scheme, and so callers can force distinct
	// addresses for otherwise-identical sweeps.
	Seed int64
}

// cacheOptions is the result-affecting option subset that participates
// in the cache key. Parallel, Timeout and a bare Observer are excluded:
// they cannot change a deterministic cell's bytes.
func (o RunOptions) cacheOptions() map[string]string {
	m := map[string]string{}
	if o.CheckCoherence {
		m["coherence"] = "1"
	}
	if o.Metrics {
		m["metrics"] = "1"
	}
	return m
}

// cellKey builds the content address of one cell under these options.
func (o RunOptions) cellKey(s Scale, topology, workload, config string) runner.CellKey {
	return runner.CellKey{
		Workload: workload, Config: config,
		Topology: topology, Scale: s.Name(),
		Faults: o.Faults, Seed: o.Seed,
		Options:     o.cacheOptions(),
		CodeVersion: runner.CodeVersion(),
	}
}

// withCache wraps a task body with cache consultation: a hit returns
// the stored outcome without building a hierarchy or stepping the
// engine; a miss runs the body and stores a successful outcome. Traced
// sweeps bypass the cache (timelines are a large local debugging
// affordance), and failures always re-execute.
func (o RunOptions) withCache(s Scale, topology string, t runner.Task) runner.Task {
	if o.Cache == nil || o.Trace {
		return t
	}
	key := o.cellKey(s, topology, t.Workload, t.Config).Hash()
	body := t.Run
	t.Run = func(ctx context.Context) (*runner.Outcome, error) {
		if out, ok := o.Cache.Get(key); ok {
			return out, nil
		}
		out, err := body(ctx)
		if err == nil && out != nil {
			o.Cache.Put(key, out)
		}
		return out, err
	}
	return t
}

// cell is the one task builder of the sweeps' cells. On a cell-cache
// miss its task calls build — which constructs the cell's hierarchy and
// its own application's verified run, nothing else — then attaches the
// recorder and checks the options ask for, runs the cell, and finishes
// its outcome; globalOps also captures the hierarchy's global WB/INV
// line-operation counts. Each task owns everything it touches, so tasks
// run concurrently.
func (o RunOptions) cell(s Scale, topology, name, config string, globalOps bool, build func() workload.Cell) runner.Task {
	return o.withCache(s, topology, runner.Task{
		Workload: name,
		Config:   config,
		Run: func(ctx context.Context) (*runner.Outcome, error) {
			c := build()
			c.Recorder = o.instrument(c.H)
			var err error
			if c.Oracle, err = o.checks(c.H, len(c.Guests)); err != nil {
				return nil, err
			}
			r, err := c.Run(ctx)
			var out *runner.Outcome
			if err == nil {
				out = &runner.Outcome{Result: r}
				if hi, ok := c.H.(*core.Hierarchy); globalOps && ok {
					out.GlobalWB, out.GlobalINV = hi.GlobalOps()
				}
			}
			o.finish(name, config, c.Recorder, out)
			return out, err
		},
	})
}

// Workers returns the effective worker count for n tasks.
func (o RunOptions) Workers(n int) int { return o.runner().Workers(n) }

// runner converts the orchestration subset to runner.Options.
func (o RunOptions) runner() runner.Options {
	return runner.Options{Parallel: o.Parallel, Timeout: o.Timeout}
}

// checks attaches the per-run fault state to a hierarchy and builds the
// oracle, per the options; the oracle is nil when neither is asked for.
func (o RunOptions) checks(h engine.Hierarchy, threads int) (*oracle.Oracle, error) {
	var st *faultinject.State
	if o.Faults != "" {
		plan, err := faultinject.Parse(o.Faults)
		if err != nil {
			return nil, err
		}
		if ch, ok := h.(*core.Hierarchy); ok && !plan.Empty() {
			st = faultinject.NewState(plan)
			ch.SetFaults(st)
		}
	}
	if !o.CheckCoherence && st == nil {
		return nil, nil
	}
	orc := oracle.New(threads)
	orc.SetFaults(st)
	return orc, nil
}

// instrument builds the cell's recorder per the options and attaches it
// to the hierarchy's components; nil unless Metrics or Trace asks for
// one. An Observer alone records nothing: a recorder must see every op,
// so it switches off the engine's private-op fast path.
// Metrics-only cells keep exact totals and high-water marks but store
// no timelines (negative caps); tracing buys the bounded rings.
func (o RunOptions) instrument(h engine.Hierarchy) *obs.Recorder {
	if !o.Metrics && !o.Trace {
		return nil
	}
	cfg := obs.Config{SpanCap: -1, TrackCap: -1}
	if o.Trace {
		cfg = obs.Config{}
	}
	rec := obs.New(cfg)
	obs.Attach(h, rec)
	return rec
}

// finish fires the Observer callback and captures the cell's snapshot
// and timeline into the outcome (nil out on a failed run: the callback
// still sees the recorder, the outcome captures nothing). The callback
// receives a nil recorder when neither Metrics nor Trace is set.
func (o RunOptions) finish(workload, config string, rec *obs.Recorder, out *runner.Outcome) {
	if o.Observer != nil {
		o.Observer(workload, config, rec)
	}
	if rec == nil || out == nil {
		return
	}
	if o.Metrics {
		out.Metrics = rec.Snapshot()
	}
	if o.Trace {
		out.Trace = rec.TraceData()
	}
}

// cellTraces gathers the retained timelines of a traced sweep in task
// order, labeled for Chrome export.
func cellTraces(grid *runner.Grid) []obs.CellTrace {
	var traces []obs.CellTrace
	for _, c := range grid.Cells() {
		if c.Outcome != nil && c.Outcome.Trace != nil {
			traces = append(traces, obs.CellTrace{Workload: c.Workload, Config: c.Config, Trace: c.Outcome.Trace})
		}
	}
	return traces
}

// DefaultRunOptions fans runs out across GOMAXPROCS workers with no
// per-run timeout. Results are identical to a serial sweep: every run is
// independent and assembly is keyed, not order-dependent.
func DefaultRunOptions() RunOptions {
	return RunOptions{Parallel: runtime.GOMAXPROCS(0)}
}

// IntraResult is the outcome of the intra-block experiments (E3 + E4).
type IntraResult struct {
	// Figure9 is the normalized execution time with the paper's stall
	// breakdown (INV, WB, lock, barrier, rest), bars HCC/Base/B+M/B+I/
	// B+M+I per application, normalized to HCC.
	Figure9 *Figure
	// Figure10 is the normalized network traffic of HCC vs B+M+I with
	// the paper's class breakdown (linefill, writeback, invalidation,
	// memory), normalized to HCC.
	Figure10 *Figure
	// Raw holds every successful run's engine result, keyed by app then
	// config.
	Raw map[string]map[string]*Result
	// Runs holds one record per run in sweep order (errors included).
	Runs []runner.RunRecord
	// Traces holds each cell's retained stall timeline in sweep order
	// when the sweep ran with RunOptions.Trace (empty otherwise); feed
	// them to obs.WriteChrome.
	Traces []obs.CellTrace
}

// intraTasks builds one task per (application, configuration) pair
// over the given configurations, in IntraCells order when they are
// IntraConfigs.
func intraTasks(s Scale, opts RunOptions, configs []Config) []runner.Task {
	var tasks []runner.Task
	for _, a := range selected(intraApps, opts.Only) {
		for _, cfg := range configs {
			tasks = append(tasks, opts.cell(s, "intra", a.name, cfg.Name, false, func() workload.Cell {
				return a.build(s, intraThreads).Cell(NewHierarchy(NewIntraMachine(), cfg), cfg)
			}))
		}
	}
	return tasks
}

// runIntraOpts is the struct-options form behind RunIntra. On failure
// it returns the joined per-cell errors
// together with the partial result: applications whose HCC baseline
// succeeded still get their figure groups, and Runs records every cell
// including the failed ones.
func runIntraOpts(ctx context.Context, s Scale, opts RunOptions) (*IntraResult, error) {
	grid := runner.Run(ctx, intraTasks(s, opts, IntraConfigs), opts.runner())
	res := &IntraResult{
		Figure9:  &Figure{ID: "figure9", Title: "Figure 9: normalized execution time (intra-block)", Categories: []string{"inv", "wb", "lock", "barrier", "rest"}},
		Figure10: &Figure{ID: "figure10", Title: "Figure 10: normalized traffic, HCC vs B+M+I (flits)", Categories: []string{"linefill", "writeback", "invalidation", "memory"}},
		Raw:      make(map[string]map[string]*Result),
		Runs:     grid.Records(),
		Traces:   cellTraces(grid),
	}
	for _, a := range intraApps {
		res.Raw[a.name] = make(map[string]*Result)
		for _, cfg := range IntraConfigs {
			if r := grid.Result(a.name, cfg.Name); r != nil {
				res.Raw[a.name][cfg.Name] = r
			}
		}
		// Normalization reads the HCC baseline by key, so the figures do
		// not depend on IntraConfigs order (or on which run finished
		// first under parallel execution).
		hcc := grid.Result(a.name, HCC.Name)
		if hcc == nil {
			continue // baseline failed; reported via Runs and Err
		}
		hccCycles := float64(hcc.Cycles)
		g9 := stats.Group{Name: a.name}
		g10 := stats.Group{Name: a.name}
		for _, cfg := range IntraConfigs {
			r := grid.Result(a.name, cfg.Name)
			if r == nil {
				continue
			}
			// The paper's per-category stall heights are aggregated over
			// threads, scaled so the bar's total equals the parallel
			// execution time ratio.
			inv, wb, lock, barrier, rest := r.Stalls.Figure9()
			tot := float64(inv + wb + lock + barrier + rest)
			var scale float64
			if tot > 0 {
				scale = ratio(float64(r.Cycles), hccCycles) / tot
			}
			g9.Bars = append(g9.Bars, stats.Bar{
				Label: cfg.Name,
				Segments: []float64{
					float64(inv) * scale, float64(wb) * scale, float64(lock) * scale,
					float64(barrier) * scale, float64(rest) * scale,
				},
			})
			if cfg.Name == HCC.Name || cfg.Name == BMI.Name {
				lf, wbt, invt, memt := r.Traffic.Figure10()
				lf0, wb0, inv0, mem0 := hcc.Traffic.Figure10()
				norm := float64(lf0 + wb0 + inv0 + mem0)
				g10.Bars = append(g10.Bars, stats.Bar{
					Label: cfg.Name,
					Segments: []float64{
						ratio(float64(lf), norm), ratio(float64(wbt), norm),
						ratio(float64(invt), norm), ratio(float64(memt), norm),
					},
				})
			}
		}
		res.Figure9.Groups = append(res.Figure9.Groups, g9)
		res.Figure10.Groups = append(res.Figure10.Groups, g10)
	}
	return res, grid.Err()
}

// Document serializes the result for the shape checker and external
// tooling.
func (r *IntraResult) Document(s Scale) *runner.Document {
	return document(s, "intra", r.Runs, r.Figure9, r.Figure10)
}

// document is the one builder of the sweeps' results documents. It
// fills each bar's encoded Total from its height as the figure enters
// the document; the document shares the figures' groups.
func document(s Scale, suite string, runs []runner.RunRecord, figs ...*Figure) *runner.Document {
	d := &runner.Document{
		Schema:  envelope.SchemaV2,
		Kind:    envelope.KindResults,
		Scale:   s.Name(),
		Suite:   suite,
		Figures: make([]Figure, len(figs)),
		Runs:    runs,
	}
	for i, f := range figs {
		for _, g := range f.Groups {
			for j := range g.Bars {
				g.Bars[j].Total = g.Bars[j].Height()
			}
		}
		d.Figures[i] = *f
	}
	return d
}

// InterResult is the outcome of the inter-block experiments (E5 + E6).
type InterResult struct {
	// Figure11 compares global WB and INV line-operation counts of Addr
	// vs Addr+L, normalized to Addr (categories: global WB, global INV).
	Figure11 *Figure
	// Figure12 is the normalized execution time (bars HCC/Base/Addr/
	// Addr+L, normalized to HCC).
	Figure12 *Figure
	// Raw holds every successful run's engine result, keyed by app then
	// mode.
	Raw map[string]map[string]*Result
	// Runs holds one record per run in sweep order (errors included).
	Runs []runner.RunRecord
	// Traces holds each cell's retained stall timeline in sweep order
	// when the sweep ran with RunOptions.Trace (empty otherwise); feed
	// them to obs.WriteChrome.
	Traces []obs.CellTrace
}

// interTasks builds one task per (application, mode) pair, in
// InterCells order; global WB/INV line-operation counts are captured
// into the outcome for the modes Figure 11 compares.
func interTasks(s Scale, opts RunOptions) []runner.Task {
	var tasks []runner.Task
	for _, a := range selected(interApps, opts.Only) {
		for _, mode := range InterModes {
			tasks = append(tasks, opts.cell(s, "inter", a.name, mode.String(), true, func() workload.Cell {
				return a.build(s, interThreads).Cell(NewModeHierarchy(NewInterMachine(), mode), mode)
			}))
		}
	}
	return tasks
}

// runInterOpts is the struct-options form behind RunInter; error
// semantics match runIntraOpts.
func runInterOpts(ctx context.Context, s Scale, opts RunOptions) (*InterResult, error) {
	grid := runner.Run(ctx, interTasks(s, opts), opts.runner())
	res := &InterResult{
		Figure11: &Figure{ID: "figure11", Title: "Figure 11: normalized global WB and INV counts", Categories: []string{"global-wb", "global-inv"}},
		Figure12: &Figure{ID: "figure12", Title: "Figure 12: normalized execution time (inter-block)", Categories: []string{"cycles"}},
		Raw:      make(map[string]map[string]*Result),
		Runs:     grid.Records(),
		Traces:   cellTraces(grid),
	}
	for _, a := range interApps {
		res.Raw[a.name] = make(map[string]*Result)
		for _, mode := range InterModes {
			if r := grid.Result(a.name, mode.String()); r != nil {
				res.Raw[a.name][mode.String()] = r
			}
		}
		// Figure 12 normalizes to the HCC baseline by key; Figure 11
		// normalizes Addr+L's global operations to Addr's by key. Neither
		// depends on InterModes order.
		hcc := grid.Result(a.name, ModeHCC.String())
		if hcc == nil {
			continue
		}
		hccCycles := float64(hcc.Cycles)
		g12 := stats.Group{Name: a.name}
		for _, mode := range InterModes {
			if r := grid.Result(a.name, mode.String()); r != nil {
				g12.Bars = append(g12.Bars, stats.Bar{
					Label:    mode.String(),
					Segments: []float64{ratio(float64(r.Cycles), hccCycles)},
				})
			}
		}
		res.Figure12.Groups = append(res.Figure12.Groups, g12)
		addr := grid.Get(a.name, ModeAddr.String())
		if addr == nil || addr.Outcome == nil {
			continue
		}
		g11 := stats.Group{Name: a.name}
		for _, mode := range []Mode{ModeAddr, ModeAddrL} {
			c := grid.Get(a.name, mode.String())
			if c == nil || c.Outcome == nil {
				continue
			}
			g11.Bars = append(g11.Bars, stats.Bar{
				Label: mode.String(),
				Segments: []float64{
					ratio(float64(c.Outcome.GlobalWB), float64(addr.Outcome.GlobalWB)),
					ratio(float64(c.Outcome.GlobalINV), float64(addr.Outcome.GlobalINV)),
				},
			})
		}
		res.Figure11.Groups = append(res.Figure11.Groups, g11)
	}
	return res, grid.Err()
}

// Document serializes the result for the shape checker and external
// tooling.
func (r *InterResult) Document(s Scale) *runner.Document {
	return document(s, "inter", r.Runs, r.Figure11, r.Figure12)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	return a / b
}

// PatternTable regenerates Table I: the communication-pattern
// classification of the intra-block applications, from the workloads' own
// declarations cross-checked against the synchronization operations they
// actually execute. The per-application Base runs are the intra sweep's
// Base cells, run under DefaultRunOptions.
func PatternTable(s Scale) (string, error) {
	opts := DefaultRunOptions()
	grid := runner.Run(context.Background(), intraTasks(s, opts, []Config{Base}), opts.runner())
	if err := grid.Err(); err != nil {
		return "", err
	}
	res := &IntraResult{Raw: make(map[string]map[string]*Result)}
	for _, c := range grid.Cells() {
		res.Raw[c.Workload] = map[string]*Result{Base.Name: c.Outcome.Result}
	}
	return res.PatternTable(s)
}

// PatternTable renders Table I at scale s from the sweep's own Base
// cells, so a report that ran the intra sweep need not run them again.
// It fails if a Base cell is missing.
func (r *IntraResult) PatternTable(s Scale) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: communication patterns (intra-block applications)\n")
	fmt.Fprintf(&b, "%-14s %-28s %-28s %s\n", "app", "main", "other", "measured sync ops")
	for _, w := range IntraWorkloads(s) {
		base := r.Raw[w.Name][Base.Name]
		if base == nil {
			return "", fmt.Errorf("Table I: %s has no Base result", w.Name)
		}
		fmt.Fprintf(&b, "%-14s %-28s %-28s %s\n",
			w.Name, strings.Join(w.Main, ", "), strings.Join(w.Other, ", "), SyncCensus(base))
	}
	return b.String(), nil
}

// SyncCensus summarizes the synchronization operations of a run.
func SyncCensus(r *Result) string {
	type entry struct {
		name  string
		count int64
	}
	entries := []entry{
		{"barrier", r.Ops[isa.OpBarrier]},
		{"flag", r.Ops[isa.OpFlagSet] + r.Ops[isa.OpFlagWait]},
		{"lock", r.Ops[isa.OpAcquire]},
	}
	parts := make([]string, 0, len(entries))
	for _, e := range entries {
		parts = append(parts, fmt.Sprintf("%s=%d", e.name, e.count))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
