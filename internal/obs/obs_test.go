package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/stats"
)

// TestNilRecorderIsInert pins the disabled-mode contract: every method
// of a nil Recorder (and of the nil sub-objects it hands out) is a
// no-op. The instrumented components call these blindly, so a panic
// here is a crash in every uninstrumented run.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.SetNow(5)
	if r.Now() != 0 {
		t.Error("nil recorder has a clock")
	}
	r.Hist("h").Observe(7)
	if r.Hist("h").Count() != 0 {
		t.Error("nil hist holds observations")
	}
	r.Span(3, stats.WBStall, 0, 10)
	if r.SpanTrack(3).Dropped() != 0 || r.SpanTrack(3).Spans() != nil {
		t.Error("nil span track holds spans")
	}
	if (r.SpanTrack(3).Totals() != stats.Stalls{}) {
		t.Error("nil span track holds totals")
	}
	r.Track("meb", 0).Sample(r.Now(), 9)
	if r.Track("meb", 0).HWM() != 0 || r.Track("meb", 0).Samples() != nil {
		t.Error("nil track holds samples")
	}
	r.OnCollect(func(*Collect) { t.Error("collector registered on nil recorder") })
	if r.Snapshot() != nil || r.TraceData() != nil {
		t.Error("nil recorder exports data")
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 7 || s.Sum != 1010 || s.Max != 1000 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 7/1010/1000", s.Count, s.Sum, s.Max)
	}
	// -5 clamps to 0, so bucket 0 (v==0) holds two; 1 -> bucket 1;
	// 2,3 -> bucket 2; 4 -> bucket 3; 1000 -> bucket 10.
	want := []int64{2, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", s.Buckets, want)
		}
	}
}

func TestSpanCoalescingAndBounding(t *testing.T) {
	r := New(Config{SpanCap: 2})
	// Two adjacent busy spans coalesce into one.
	r.Span(0, stats.Busy, 0, 5)
	r.Span(0, stats.Busy, 5, 3)
	// A different kind starts a new span.
	r.Span(0, stats.WBStall, 8, 4)
	// Ring is full (cap 2): this span is dropped from the timeline but
	// still totalled.
	r.Span(0, stats.Busy, 12, 2)
	st := r.SpanTrack(0)
	spans := st.Spans()
	if len(spans) != 2 || spans[0] != (Span{Start: 0, Dur: 8, Kind: stats.Busy}) ||
		spans[1] != (Span{Start: 8, Dur: 4, Kind: stats.WBStall}) {
		t.Fatalf("spans = %+v", spans)
	}
	if st.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped())
	}
	tot := st.Totals()
	if tot[stats.Busy] != 10 || tot[stats.WBStall] != 4 {
		t.Errorf("totals = %v; busy/wb want 10/4", tot)
	}
	// Zero/negative durations are not spans.
	r.Span(0, stats.Busy, 14, 0)
	if st.Dropped() != 1 {
		t.Error("zero-duration span counted as dropped")
	}
}

func TestTrackDedupAndHWM(t *testing.T) {
	r := New(Config{TrackCap: 2})
	r.SetNow(10)
	r.Track("meb", 1).Sample(r.Now(), 3)
	r.SetNow(20)
	r.Track("meb", 1).Sample(r.Now(), 3) // unchanged: no new sample
	r.SetNow(30)
	r.Track("meb", 1).Sample(r.Now(), 7)
	r.SetNow(40)
	r.Track("meb", 1).Sample(r.Now(), 2) // ring full: dropped, HWM still tracked
	tr := r.Track("meb", 1)
	if got := tr.Samples(); len(got) != 2 || got[0] != (TrackSample{T: 10, V: 3}) || got[1] != (TrackSample{T: 30, V: 7}) {
		t.Fatalf("samples = %+v", got)
	}
	if tr.HWM() != 7 {
		t.Errorf("hwm = %d, want 7", tr.HWM())
	}
}

func TestSnapshotDeterministicAndReconciled(t *testing.T) {
	build := func() *Recorder {
		r := New(Config{})
		r.Hist("lat").Observe(16)
		r.Hist("lat").Observe(32)
		r.Span(0, stats.Busy, 0, 10)
		r.Span(1, stats.INVStall, 3, 7)
		r.SetNow(4)
		r.Track("meb", 0).Sample(r.Now(), 5)
		r.OnCollect(func(c *Collect) {
			c.Count("b.count", 2)
			c.Count("a.count", 1)
			c.Count("cache.hits", 9)
			c.Count("zero.skipped", 0)
			c.Gauge("meb.occ.hwm", r.Track("meb", 0).HWM())
		})
		return r
	}
	a, _ := json.Marshal(build().Snapshot())
	b, _ := json.Marshal(build().Snapshot())
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot not deterministic:\n%s\n%s", a, b)
	}
	s := build().Snapshot()
	if s.Schema != MetricsSchema {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 2 || s.Counters["cache.hits"] != 9 {
		t.Errorf("counters = %v", s.Counters)
	}
	if _, ok := s.Counters["zero.skipped"]; ok {
		t.Error("zero-valued counter not omitted")
	}
	if s.Gauges["meb.occ.hwm"] != 5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.StallCycles["busy"] != 10 || s.StallCycles["inv"] != 7 {
		t.Errorf("stall cycles = %v", s.StallCycles)
	}
	if s.SpanCount != 2 || s.SpanDropped != 0 {
		t.Errorf("span count/dropped = %d/%d", s.SpanCount, s.SpanDropped)
	}
	if s.Hists["lat"].Count != 2 || s.Hists["lat"].Sum != 48 {
		t.Errorf("hist = %+v", s.Hists["lat"])
	}
	// Trace totals reconcile with the snapshot's stall cycles.
	tr := build().TraceData()
	tot := tr.StallTotals()
	if tot[stats.Busy] != 10 || tot[stats.INVStall] != 7 {
		t.Errorf("trace totals = %v", tot)
	}
	if len(tr.Spans) != 2 || len(tr.Tracks) != 1 {
		t.Errorf("trace shape: %d cores, %d tracks", len(tr.Spans), len(tr.Tracks))
	}
}

func TestTotalsOnlyCapsStoreNothing(t *testing.T) {
	r := New(Config{SpanCap: -1, TrackCap: -1})
	r.Span(0, stats.Busy, 0, 4)
	r.Track("meb", 0).Sample(r.Now(), 3)
	if n := len(r.SpanTrack(0).Spans()); n != 0 {
		t.Errorf("stored %d spans with negative cap", n)
	}
	if r.SpanTrack(0).Totals()[stats.Busy] != 4 {
		t.Error("totals lost with negative cap")
	}
	if n := len(r.Track("meb", 0).Samples()); n != 0 {
		t.Errorf("stored %d samples with negative cap", n)
	}
	if r.Track("meb", 0).HWM() != 3 {
		t.Error("HWM lost with negative cap")
	}
}
