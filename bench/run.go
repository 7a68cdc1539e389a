package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	hic "repro"
)

// The load is sized for a 2-CPU machine: sweeps and the fuzz campaign
// run 2 runner workers, and serve-mix runs 2 clients against 2 server
// workers.
const workers = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow first set-up does not decide it.
const setupReps = 5

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
}

// size fixes how much work one pass does. benchSize is what the
// benchmark measures; the smoke test runs the same code at a small size.
type size struct {
	scale hic.Scale
	// intraApps and interApps restrict the sweeps (nil means all).
	intraApps, interApps []string
	// maxBlocks bounds the manycore block counts (1, 2, 4, ... maxBlocks).
	maxBlocks int
	// litmusK is the enumeration's op budget.
	litmusK int
	// fuzzSeeds is the number of generated programs per campaign.
	fuzzSeeds uint64
	// serveApps are the applications serve-mix requests pair up (nil
	// means all eleven).
	serveApps []string
	// pins compares outputs against the pinned digests and totals, which
	// are only known for benchSize.
	pins bool
}

var benchSize = size{
	scale:     hic.ScaleBench,
	maxBlocks: 128,
	litmusK:   4,
	fuzzSeeds: 200,
	pins:      true,
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	setup func(cfg config) (*instance, error)
}

var workloads = []workload{
	{"intra-fig9", setupIntra},
	{"inter-manycore", setupInterManycore},
	{"litmus-k4", setupLitmus},
	{"fuzz-campaign", setupFuzz},
	{"serve-mix", setupServe},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// instance is a set-up workload, ready to run passes.
type instance struct {
	// run executes one pass: untraced when tr is nil, otherwise with
	// every layer call timed into tr.
	run func(ctx context.Context, tr *tracer) (*pass, error)
	// pin is the digest every untraced pass must produce ("" when none
	// is pinned for this size and seed).
	pin string
	// setupMetric names the per-layer metric the set-up time is, if any.
	setupMetric string
}

// pass is what one pass produced.
type pass struct {
	wall time.Duration
	// itemMS holds each item's host time: a cell, a program, a request.
	itemMS []float64
	// classMS splits serve-mix request times by request class.
	classMS map[string][]float64
	// failed counts items that failed or whose output was wrong, and
	// problems says why.
	failed   int
	problems []string
	// ops is the simulated operation count (sweeps only).
	ops int64
	// digest fingerprints the pass's canonical output ("" when the pass
	// has none); every untraced pass of a run must produce the same one.
	digest string
	// cells holds each item's outcome; a traced pass must reproduce the
	// untraced pass's cells exactly.
	cells map[string]any
	// runtime is the Go runtime's counters over the pass (untraced
	// passes only).
	runtime runtimeCounters
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// failAll records a problem with the pass's output as a whole, which
// fails every item of the pass.
func (p *pass) failAll(format string, args ...any) {
	p.failed = len(p.itemMS)
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// result is everything one run reports.
type result struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples counts the values behind each percentile and median.
	Samples   map[string]int `json:"samples"`
	PassWallS []float64      `json:"pass_wall_s"`
	// TracedWallS is the traced pass's wall time (-trace 1 only).
	TracedWallS float64   `json:"traced_wall_s,omitempty"`
	SetupS      []float64 `json:"setup_s"`
	Problems    []string  `json:"problems,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header records the machine and run a result came from.
type header struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu_online"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func run(ctx context.Context, cfg config) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	res := &result{Header: newHeader(cfg), Samples: map[string]int{}}
	var inst *instance
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	res.Samples["setups"] = setupReps
	var err error
	if cfg.trace {
		err = traceRun(ctx, cfg, inst, res)
	} else {
		err = timedRun(ctx, cfg, inst, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Header.Passes = len(res.PassWallS)
	res.Samples["passes"] = len(res.PassWallS)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// runPasses runs untraced passes back to back until the next one would
// end past cfg.seconds, reading the Go runtime's counters around each.
func runPasses(ctx context.Context, cfg config, inst *instance) ([]*pass, error) {
	var passes []*pass
	var walls []float64
	start := time.Now()
	for {
		runtime.GC()
		before := readRuntime()
		p, err := inst.run(ctx, nil)
		if err != nil {
			return nil, err
		}
		p.runtime = readRuntime().minus(before)
		passes = append(passes, p)
		walls = append(walls, p.wall.Seconds())
		if time.Since(start).Seconds()+median(walls) > cfg.seconds {
			return passes, nil
		}
	}
}

// timedRun reports the end-to-end metrics of untraced passes.
func timedRun(ctx context.Context, cfg config, inst *instance, res *result) error {
	passes, err := runPasses(ctx, cfg, inst)
	if err != nil {
		return err
	}
	check(res, inst.pin, passes)
	var items []float64
	for _, p := range passes {
		items = append(items, p.itemMS...)
	}
	res.Samples["item_ms"] = len(items)
	vals := map[string]float64{
		"wall_s":      median(res.PassWallS),
		"setup_s":     median(res.SetupS),
		"peak_rss_mb": peakRSSMiB(),
		"item_ms.p50": percentile(items, 50),
		"item_ms.p90": percentile(items, 90),
	}
	res.Metrics, err = emit(endToEnd, vals, true)
	return err
}

// traceRun runs untraced passes under the CPU profile, as a timed run
// would, then one traced pass, and reports the per-layer metrics. The
// profile and the gc.* counters describe the untraced passes, so they
// attribute the same seconds wall_s measures.
func traceRun(ctx context.Context, cfg config, inst *instance, res *result) error {
	stop, profile, err := startProfile()
	if err != nil {
		return err
	}
	defer os.Remove(profile)
	passes, err := runPasses(ctx, cfg, inst)
	stop()
	if err != nil {
		return err
	}
	check(res, inst.pin, passes)

	tr := newTracer()
	runtime.GC()
	traced, err := inst.run(ctx, tr)
	if err != nil {
		return err
	}
	res.TracedWallS = traced.wall.Seconds()
	if diff := diffCells(passes[0].cells, traced.cells); diff != "" {
		traced.failAll("traced pass changed the outcome of %s", diff)
	}
	res.add(traced)

	shares, samples, err := profileShares(profile)
	if err != nil {
		return err
	}
	vals := tr.layerMetrics(traced)
	for k, v := range shares {
		vals[k] = v
	}
	var rt runtimeCounters
	var ops int64
	var wall float64
	var items int
	for _, p := range passes {
		rt = rt.plus(p.runtime)
		ops += p.ops
		wall += p.wall.Seconds()
		items += len(p.itemMS)
	}
	for k, v := range rt.metrics(len(passes), items) {
		vals[k] = v
	}
	vals["sim_mops_per_s"] = float64(ops) / wall / 1e6
	vals["trace.overhead_frac"] = traced.wall.Seconds()/median(res.PassWallS) - 1
	if inst.setupMetric != "" {
		vals[inst.setupMetric] = median(res.SetupS)
	}
	for class, ms := range traced.classMS {
		res.Samples["serve."+class+"_ms"] = len(ms)
	}
	res.Samples["traced_item_ms"] = len(traced.itemMS)
	res.Samples["prof"] = samples
	res.Metrics, err = emit(perLayer, vals, false)
	return err
}

// check folds the untraced passes' items, failures and wall times into
// res; a pass whose digest misses the pin, or differs from the first
// pass's, fails all of its items.
func check(res *result, pin string, passes []*pass) {
	for i, p := range passes {
		switch {
		case pin != "" && p.digest != pin:
			p.failAll("pass %d: output digest %s, pinned %s", i, p.digest, pin)
		case p.digest != passes[0].digest:
			p.failAll("pass %d: output digest %s differs from pass 0's %s", i, p.digest, passes[0].digest)
		}
		res.add(p)
		res.PassWallS = append(res.PassWallS, p.wall.Seconds())
	}
}

// add counts p's items and failures into the run's totals.
func (res *result) add(p *pass) {
	res.Attempted += len(p.itemMS)
	res.Failed += p.failed
	res.Problems = append(res.Problems, p.problems...)
}

// diffCells names the first key whose outcome differs between a and b.
func diffCells(a, b map[string]any) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(a[k], b[k]) {
			return k
		}
	}
	return ""
}

// emit turns computed values into the reported metrics. End-to-end
// metrics must all be computed; a per-layer metric whose layer the
// workload never calls reads 0. Every value must be finite.
func emit(defs []metricDef, vals map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolated q-th percentile (0 when xs is
// empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func newHeader(cfg config) header {
	h := header{
		Schema:     "hic-bench-e2e/v1",
		Workload:   cfg.workload,
		Trace:      cfg.trace,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			switch k = strings.TrimSpace(k); {
			case !ok:
			case k == "processor":
				h.NumCPU++
			case k == "model name" && h.CPUModel == "unknown":
				h.CPUModel = strings.TrimSpace(v)
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}
