package hic

// End-to-end tests of the observability layer: the metrics snapshots
// embedded in sweep documents must be deterministic (worker count and
// scheduling order must never leak into them), the retained stall
// timelines must reconcile *exactly* with the engine's stall
// accounting, and the Chrome export of a real sweep must be well-formed
// trace_event JSON. Unit coverage of the recorder itself lives in
// internal/obs; these tests pin the integration contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestMetricsSnapshotsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *IntraResult {
		res, err := RunIntra(context.Background(), ScaleTest,
			WithParallel(workers), WithMetrics())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	sj := encodeDoc(t, serial.Document(ScaleTest))
	pj := encodeDoc(t, parallel.Document(ScaleTest))
	if !bytes.Equal(sj, pj) {
		t.Error("metrics-bearing sweep document differs between 1 and 8 workers")
	}
	for _, r := range serial.Runs {
		if r.Metrics == nil {
			t.Fatalf("%s/%s: no metrics snapshot", r.Workload, r.Config)
		}
		if r.Metrics.Schema != obs.MetricsSchema {
			t.Errorf("%s/%s: metrics schema %q, want %q", r.Workload, r.Config, r.Metrics.Schema, obs.MetricsSchema)
		}
		if r.Metrics.Counters["cache.l1.hits"] == 0 {
			t.Errorf("%s/%s: snapshot has no L1 hits", r.Workload, r.Config)
		}
		// The snapshot's stall totals must agree with the run record's
		// engine-side breakdown kind for kind (both derive from the same
		// paired accounting sites).
		for kind, cycles := range r.Stalls {
			if got := r.Metrics.StallCycles[kind]; got != cycles {
				t.Errorf("%s/%s: snapshot %s = %d cycles, engine counted %d",
					r.Workload, r.Config, kind, got, cycles)
			}
		}
		if len(r.Metrics.StallCycles) != len(r.Stalls) {
			t.Errorf("%s/%s: snapshot has %d stall kinds, engine %d",
				r.Workload, r.Config, len(r.Metrics.StallCycles), len(r.Stalls))
		}
	}
}

func TestTraceReconcilesWithEngineStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full intra sweep with tracing")
	}
	res, err := RunIntra(context.Background(), ScaleTest, WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) == 0 {
		t.Fatal("traced sweep retained no timelines")
	}
	for _, ct := range res.Traces {
		r := res.Raw[ct.Workload][ct.Config]
		if r == nil {
			t.Fatalf("%s/%s: trace without raw result", ct.Workload, ct.Config)
		}
		// Exact reconciliation: span totals stay exact even when the
		// bounded rings drop timeline entries, so the per-kind sums must
		// equal the engine's aggregate stall breakdown to the cycle.
		if got := ct.Trace.StallTotals(); got != r.Stalls {
			t.Errorf("%s/%s: trace stall totals %v != engine stalls %v",
				ct.Workload, ct.Config, got, r.Stalls)
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, res.Traces); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Dur int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("chrome export of a real sweep is not valid JSON: %v", err)
	}
	var spans int
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans++
			if ev.Dur <= 0 {
				t.Fatal("complete event with non-positive duration")
			}
		}
	}
	if spans == 0 {
		t.Error("chrome export of a real sweep contains no stall spans")
	}
}

func TestRunWithObserver(t *testing.T) {
	// Dogfood the variadic Run API: a single run with an observer
	// callback is the programmatic access path to the recorder.
	wl := IntraWorkloads(ScaleTest)[0]
	h := NewHierarchy(NewIntraMachine(), BMI)
	var snap *MetricsSnapshot
	res, err := Run(h, wl.Guests(BMI), WithMetrics(), WithObserver(func(workload, config string, rec *Recorder) {
		snap = rec.Snapshot()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("observer callback never ran")
	}
	if snap.Counters["cache.l1.hits"] == 0 {
		t.Error("observed run recorded no L1 hits")
	}
	var total int64
	for _, v := range snap.StallCycles {
		total += v
	}
	if total != res.Stalls.Total() {
		t.Errorf("observed stall cycles %d != engine total %d", total, res.Stalls.Total())
	}
}

// TestObserverAloneRecordsNothing: a progress-only observer (the
// server's) must not attach a recorder — a recorder must see every op,
// so it would switch off the engine's private-op fast path on every
// cell. The callback still fires once per cell, with a nil recorder.
func TestObserverAloneRecordsNothing(t *testing.T) {
	var mu sync.Mutex
	var cells []string
	_, err := RunIntra(context.Background(), ScaleTest, WithOnly("fft"), WithObserver(func(workload, config string, rec *Recorder) {
		mu.Lock()
		defer mu.Unlock()
		cells = append(cells, workload+"/"+config)
		if rec != nil {
			t.Errorf("%s/%s: observer-only sweep attached a recorder", workload, config)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(IntraCells("fft")) {
		t.Errorf("observer fired for %d cells, want %d: %v", len(cells), len(IntraCells("fft")), cells)
	}
}

// TestUninstrumentedSweepCarriesNoMetrics pins the default: without
// WithMetrics/WithTracing the records and traces stay empty, so the
// pre-observability document bytes are unchanged.
func TestUninstrumentedSweepCarriesNoMetrics(t *testing.T) {
	res, err := RunInter(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 0 {
		t.Errorf("uninstrumented sweep retained %d traces", len(res.Traces))
	}
	for _, r := range res.Runs {
		if r.Metrics != nil {
			t.Errorf("%s/%s: uninstrumented run carries a metrics snapshot", r.Workload, r.Config)
		}
	}
}
