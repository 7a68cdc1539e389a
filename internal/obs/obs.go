// Package obs is the observability layer: a zero-cost-when-disabled
// instrumentation recorder threaded through the simulated components
// (caches, entry buffers, NoC, memory, engine scheduler) plus two
// exporters — a deterministic hic-metrics/v1 JSON snapshot and Chrome
// trace_event output viewable in Perfetto.
//
// The design has two rules:
//
//  1. Disabled means nil. Every Recorder (and Hist/SpanTrack/Track)
//     method is safe on a nil receiver and returns immediately,
//     so an uninstrumented run carries exactly one pointer-is-nil test
//     per would-be hook — nothing is allocated and nothing is counted.
//     The overhead-guard benchmark (BenchmarkObsOverhead) and the CI
//     overhead-guard job pin this property.
//
//  2. Prefer snapshot-time collection. Components that already count
//     events for the experiments (cache hit/miss/eviction counters,
//     MEB/IEB counters, the stats.Counters protocol bag) are read once
//     at Snapshot time through registered collectors instead of paying
//     a hook per event. Hot-path hooks exist only where the data is not
//     otherwise recorded: per-core stall spans (engine), NoC latency and
//     flit-size histograms (noc), and MEB/IEB occupancy tracks (core).
//
// A Recorder belongs to one run (one experiment cell) and is used from
// that run's scheduler goroutine; histograms use atomics so they may
// also be read concurrently, but the span and track rings
// are single-writer by construction.
package obs

import (
	"sort"

	"repro/internal/stats"
)

// Defaults for the bounded buffers. Per-kind stall totals and occupancy
// high-water marks stay exact regardless of capacity; the caps only bound
// how much *timeline* is retained for trace export.
const (
	// DefaultSpanCap bounds the per-core stall-span ring.
	DefaultSpanCap = 1 << 14
	// DefaultTrackCap bounds each occupancy track's sample ring.
	DefaultTrackCap = 1 << 12
)

// Config sizes a Recorder's bounded buffers.
type Config struct {
	// SpanCap is the per-core stall-span capacity: 0 selects
	// DefaultSpanCap, negative keeps per-kind totals only (no stored
	// spans) — the right setting for metrics without trace export.
	SpanCap int
	// TrackCap is the per-track sample capacity: 0 selects
	// DefaultTrackCap, negative keeps high-water marks only.
	TrackCap int
}

// Recorder collects one run's instrumentation. The zero value is not
// useful; use New. A nil *Recorder is the disabled layer: every method
// is a no-op.
type Recorder struct {
	cfg Config
	now int64 // simulated clock, maintained by the engine via SetNow

	hists      map[string]*Hist
	spans      []*SpanTrack // per core, grown on first use
	tracks     map[trackKey]*Track
	collectors []func(*Collect)
}

type trackKey struct {
	name string
	core int
}

// New returns an enabled recorder with the given buffer configuration.
func New(cfg Config) *Recorder {
	if cfg.SpanCap == 0 {
		cfg.SpanCap = DefaultSpanCap
	}
	if cfg.TrackCap == 0 {
		cfg.TrackCap = DefaultTrackCap
	}
	return &Recorder{
		cfg:    cfg,
		hists:  make(map[string]*Hist),
		tracks: make(map[trackKey]*Track),
	}
}

// SetNow advances the recorder's view of the simulated clock. The engine
// calls it once per scheduler step so that component-side samples
// (occupancy tracks) carry simulation timestamps.
func (r *Recorder) SetNow(t int64) {
	if r == nil {
		return
	}
	r.now = t
}

// Now returns the last simulated time passed to SetNow.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.now
}

// Hist returns the named histogram, creating it on first use (nil on a
// nil recorder; a nil *Hist is a no-op).
func (r *Recorder) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = new(Hist)
		r.hists[name] = h
	}
	return h
}

// Span records dur cycles of stall kind on core starting at start.
func (r *Recorder) Span(core int, kind stats.StallKind, start, dur int64) {
	if r == nil {
		return
	}
	r.SpanTrack(core).Add(kind, start, dur)
}

// SpanTrack returns core's span ring, growing the per-core table as
// needed (nil on a nil recorder).
func (r *Recorder) SpanTrack(core int) *SpanTrack {
	if r == nil {
		return nil
	}
	for core >= len(r.spans) {
		r.spans = append(r.spans, newSpanTrack(r.cfg.SpanCap))
	}
	return r.spans[core]
}

// Track returns the named per-core sample track, creating it on first
// use (nil on a nil recorder; a nil *Track is a no-op).
func (r *Recorder) Track(name string, core int) *Track {
	if r == nil {
		return nil
	}
	k := trackKey{name, core}
	t := r.tracks[k]
	if t == nil {
		t = &Track{Name: name, Core: core, cap: r.cfg.TrackCap}
		r.tracks[k] = t
	}
	return t
}

// OnCollect registers a snapshot-time collector: a closure that reads a
// component's existing counters into the snapshot. Collectors run in
// registration order each time Snapshot is called.
func (r *Recorder) OnCollect(f func(*Collect)) {
	if r == nil {
		return
	}
	r.collectors = append(r.collectors, f)
}

// Instrumentable is implemented by components (the two hierarchies)
// that can attach a recorder to their internals.
type Instrumentable interface{ SetObs(*Recorder) }

// Attach attaches r to h when h is Instrumentable and reports whether
// it did. It exists so callers holding an interface (engine.Hierarchy)
// can instrument without widening that interface and breaking every
// fake that implements it.
func Attach(h any, r *Recorder) bool {
	i, ok := h.(Instrumentable)
	if ok {
		i.SetObs(r)
	}
	return ok
}

// sortedKeys returns m's keys in sorted order, for deterministic
// iteration at snapshot/export time.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
