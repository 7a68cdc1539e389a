package obs

import (
	"sort"

	"repro/internal/envelope"
	"repro/internal/stats"
)

// MetricsSchema identifies the metrics snapshot format.
const MetricsSchema = envelope.MetricsV1

// Snapshot is one run's metrics in exportable form. It is deterministic:
// map keys serialize sorted (encoding/json), every value derives from
// the simulation alone, and zero-valued entries are omitted, so two runs
// of the same cell produce byte-identical snapshots whatever the worker
// count.
type Snapshot struct {
	Schema string `json:"schema"`
	// Counters holds event counts, all contributed by the snapshot-time
	// collectors (cache hits/misses/evictions, MEB/IEB events, protocol
	// counters, memory accesses).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds level samples, merged by maximum (buffer occupancy
	// high-water marks).
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Hists holds the histograms (NoC latency and message sizes).
	Hists map[string]HistSnapshot `json:"hists,omitempty"`
	// StallCycles is the per-kind stall-span total summed over cores; it
	// reconciles exactly with the engine result's Stalls breakdown.
	StallCycles map[string]int64 `json:"stall_cycles,omitempty"`
	// SpanCount and SpanDropped describe the stored stall timeline:
	// spans retained across all cores and spans dropped to the ring
	// bound (totals in StallCycles still include dropped spans).
	SpanCount   int64 `json:"span_count,omitempty"`
	SpanDropped int64 `json:"span_dropped,omitempty"`
}

// Collect is the surface a snapshot-time collector writes through.
type Collect struct{ s *Snapshot }

// Count adds v to the named counter (zero adds are kept as omitted).
func (c *Collect) Count(name string, v int64) {
	if v == 0 {
		return
	}
	if c.s.Counters == nil {
		c.s.Counters = make(map[string]int64)
	}
	c.s.Counters[name] += v
}

// Gauge merges v into the named gauge by maximum.
func (c *Collect) Gauge(name string, v int64) {
	if c.s.Gauges == nil {
		c.s.Gauges = make(map[string]int64)
	}
	if cur, ok := c.s.Gauges[name]; !ok || v > cur {
		c.s.Gauges[name] = v
	}
}

// Snapshot collects the current metrics: the snapshot-time collectors,
// histogram summaries, and stall-span totals.
// It may be called repeatedly; each call re-reads the live state. On a
// nil recorder it returns nil.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{Schema: MetricsSchema}
	col := &Collect{s: s}
	for _, f := range r.collectors {
		f(col)
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		if h.Count() == 0 {
			continue
		}
		if s.Hists == nil {
			s.Hists = make(map[string]HistSnapshot)
		}
		s.Hists[name] = h.snapshot()
	}
	var totals stats.Stalls
	for _, st := range r.spans {
		t := st.Totals()
		totals.Merge(&t)
		s.SpanCount += int64(len(st.Spans()))
		s.SpanDropped += st.Dropped()
	}
	for k := stats.StallKind(0); k < stats.NumStallKinds; k++ {
		if totals[k] == 0 {
			continue
		}
		if s.StallCycles == nil {
			s.StallCycles = make(map[string]int64)
		}
		s.StallCycles[k.String()] = totals[k]
	}
	return s
}

// Trace is one run's full retained timeline, ready for Chrome export:
// per-core stall spans plus the occupancy tracks.
type Trace struct {
	// Spans holds each core's stall timeline (index = core).
	Spans [][]Span
	// Dropped counts per-core spans lost to the ring bound.
	Dropped []int64
	// Totals is each core's exact per-kind stall totals.
	Totals []stats.Stalls
	// Tracks holds the occupancy series, sorted by (Name, Core).
	Tracks []*Track
}

// StallTotals sums the exact per-kind totals over all cores; it equals
// the engine result's aggregate Stalls for a fully instrumented run.
func (t *Trace) StallTotals() stats.Stalls {
	var s stats.Stalls
	if t == nil {
		return s
	}
	for i := range t.Totals {
		s.Merge(&t.Totals[i])
	}
	return s
}

// TraceData extracts the retained timeline (nil on a nil recorder).
func (r *Recorder) TraceData() *Trace {
	if r == nil {
		return nil
	}
	t := &Trace{
		Spans:   make([][]Span, len(r.spans)),
		Dropped: make([]int64, len(r.spans)),
		Totals:  make([]stats.Stalls, len(r.spans)),
	}
	for i, st := range r.spans {
		t.Spans[i] = st.Spans()
		t.Dropped[i] = st.Dropped()
		t.Totals[i] = st.Totals()
	}
	keys := make([]trackKey, 0, len(r.tracks))
	for k := range r.tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].core < keys[j].core
	})
	for _, k := range keys {
		t.Tracks = append(t.Tracks, r.tracks[k])
	}
	return t
}
