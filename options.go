package hic

// Functional options over RunOptions: the composable form of the sweep
// API. New code writes
//
//	res, err := hic.RunIntra(ctx, hic.ScaleTest,
//		hic.WithCoherenceCheck(),
//		hic.WithMetrics(),
//		hic.WithObserver(func(w, c string, rec *hic.Recorder) { ... }))
//
// instead of filling a RunOptions literal. The deprecated positional
// *Opts entry points are gone; RunOptions itself remains the
// documentation of what the options control.

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Recorder is the observability recorder a WithObserver callback
// receives (re-exported from internal/obs).
type Recorder = obs.Recorder

// MetricsSnapshot is a recorder's deterministic metrics snapshot.
type MetricsSnapshot = obs.Snapshot

// CellTrace is one cell's labeled stall timeline, ready for
// obs.WriteChrome.
type CellTrace = obs.CellTrace

// Cache is a content-addressed sweep result cache (re-exported from
// internal/runner); see WithCache.
type Cache = runner.Cache

// MemCache is the in-memory Cache with hit/miss accounting.
type MemCache = runner.MemCache

// NewMemCache returns an empty in-memory result cache for WithCache.
func NewMemCache() *MemCache { return runner.NewMemCache() }

// Option configures a sweep or a Run call.
type Option func(*RunOptions)

// NewRunOptions builds RunOptions from DefaultRunOptions plus opts.
func NewRunOptions(opts ...Option) RunOptions {
	o := DefaultRunOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithParallel sets the sweep worker count (<= 0 means GOMAXPROCS).
func WithParallel(n int) Option {
	return func(o *RunOptions) { o.Parallel = n }
}

// WithTimeout bounds each individual run (0 means none).
func WithTimeout(d time.Duration) Option {
	return func(o *RunOptions) { o.Timeout = d }
}

// WithCoherenceCheck attaches the shadow-memory coherence oracle to
// every run.
func WithCoherenceCheck() Option {
	return func(o *RunOptions) { o.CheckCoherence = true }
}

// WithFaultPlan injects a deterministic fault plan (internal/faultinject
// grammar) into every incoherent-hierarchy run.
func WithFaultPlan(plan string) Option {
	return func(o *RunOptions) { o.Faults = plan }
}

// WithMetrics attaches an observability recorder to every run and embeds
// its deterministic snapshot in the cell's RunRecord.
func WithMetrics() Option {
	return func(o *RunOptions) { o.Metrics = true }
}

// WithTracing additionally retains the bounded per-core stall timeline
// and occupancy tracks for Chrome trace export.
func WithTracing() Option {
	return func(o *RunOptions) { o.Trace = true }
}

// WithObserver registers a callback invoked with each cell's recorder
// after its run completes. The recorder is nil unless WithMetrics or
// WithTracing is also given: a callback alone records nothing.
func WithObserver(f func(workload, config string, rec *Recorder)) Option {
	return func(o *RunOptions) { o.Observer = f }
}

// WithOnly restricts a sweep to the named workloads (unknown names are
// ignored; an empty list means all). Figures are built from whatever
// cells ran.
func WithOnly(workloads ...string) Option {
	return func(o *RunOptions) { o.Only = workloads }
}

// WithCache attaches a content-addressed result cache to the sweep:
// cells whose runner.CellKey hash is already stored return the cached
// outcome with zero engine steps. Determinism makes hits exact. See
// RunOptions.Cache for the keying discipline.
func WithCache(c runner.Cache) Option {
	return func(o *RunOptions) { o.Cache = c }
}

// WithSeed salts the cache key (see RunOptions.Seed); it does not
// change results for the current, deterministic workloads.
func WithSeed(seed int64) Option {
	return func(o *RunOptions) { o.Seed = seed }
}

// RunIntra executes the intra-block sweep (Figures 9 and 10) at scale s
// under the given options. On failure it returns the joined per-cell
// errors together with the partial result: applications whose HCC
// baseline succeeded still get their figure groups, and Runs records
// every cell including the failed ones.
func RunIntra(ctx context.Context, s Scale, opts ...Option) (*IntraResult, error) {
	return runIntraOpts(ctx, s, NewRunOptions(opts...))
}

// RunInter executes the inter-block sweep (Figures 11 and 12) at scale s
// under the given options; error semantics match RunIntra.
func RunInter(ctx context.Context, s Scale, opts ...Option) (*InterResult, error) {
	return runInterOpts(ctx, s, NewRunOptions(opts...))
}

// Run executes guests on h and returns the result. Options apply per
// run: WithMetrics/WithTracing attach a recorder to the engine and (when
// h supports it) the hierarchy, and the WithObserver callback — invoked
// with empty workload/config labels — is the access path to its snapshot
// and timeline. Orchestration options (parallelism, timeouts) have no
// effect on a single Run.
func Run(h Hierarchy, guests []Guest, opts ...Option) (*Result, error) {
	var o RunOptions
	for _, opt := range opts {
		opt(&o)
	}
	e := engine.New(h, guests)
	rec := o.instrument(h)
	if rec != nil {
		e.SetRecorder(rec)
	}
	res, err := e.Run()
	o.finish("", "", rec, nil)
	return res, err
}
