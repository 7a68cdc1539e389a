package hic

// Orchestration-level tests of the experiment sweeps: serial and parallel
// execution must emit byte-identical JSON documents, figure assembly must
// not depend on the order of IntraConfigs/InterModes (the latent
// normalization bug: the HCC and Addr baselines used to be read from loop
// variables that were only set once the baseline config had already run),
// and per-run timeouts must fail cells with labeled errors instead of
// hanging the sweep.

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/shapecheck"
)

func encodeDoc(t *testing.T, d *runner.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSerialAndParallelSweepsEmitIdenticalJSON(t *testing.T) {
	serial, err := runInterOpts(context.Background(), ScaleTest, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runInterOpts(context.Background(), ScaleTest, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	sj := encodeDoc(t, serial.Document(ScaleTest))
	pj := encodeDoc(t, parallel.Document(ScaleTest))
	if !bytes.Equal(sj, pj) {
		t.Errorf("serial and parallel inter-block JSON differ:\nserial:\n%s\nparallel:\n%s", sj, pj)
	}
}

func TestSerialAndParallelIntraSweepsEmitIdenticalJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the intra sweep twice")
	}
	serial, err := runIntraOpts(context.Background(), ScaleTest, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runIntraOpts(context.Background(), ScaleTest, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	sj := encodeDoc(t, serial.Document(ScaleTest))
	pj := encodeDoc(t, parallel.Document(ScaleTest))
	if !bytes.Equal(sj, pj) {
		t.Error("serial and parallel intra-block JSON differ")
	}
}

// barHeights flattens a figure into (group, label) -> total height.
func barHeights(f *Figure) map[[2]string]float64 {
	out := make(map[[2]string]float64)
	for _, g := range f.Groups {
		for _, b := range g.Bars {
			var h float64
			for _, s := range b.Segments {
				h += s
			}
			out[[2]string{g.Name, b.Label}] = h
		}
	}
	return out
}

func sameHeights(t *testing.T, what string, ref, got map[[2]string]float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d bars vs %d bars", what, len(ref), len(got))
	}
	for k, v := range ref {
		if g, ok := got[k]; !ok || math.Abs(g-v) > 1e-12 {
			t.Errorf("%s: bar %v/%v = %v, want %v", what, k[0], k[1], g, v)
		}
	}
}

// TestIntraAssemblyIndependentOfConfigOrder is the regression test for
// the normalization-order bug: the intra sweep used to read hccCycles
// before it was set whenever HCC was not first in IntraConfigs. Keyed
// assembly must produce identical figures for any config order.
func TestIntraAssemblyIndependentOfConfigOrder(t *testing.T) {
	ref, err := RunIntra(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	orig := IntraConfigs
	defer func() { IntraConfigs = orig }()
	// Reverse the order so HCC runs last — the worst case for the old
	// loop-carried baseline.
	IntraConfigs = make([]Config, len(orig))
	for i, c := range orig {
		IntraConfigs[len(orig)-1-i] = c
	}
	shuffled, err := RunIntra(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	sameHeights(t, "Figure 9", barHeights(ref.Figure9), barHeights(shuffled.Figure9))
	sameHeights(t, "Figure 10", barHeights(ref.Figure10), barHeights(shuffled.Figure10))
}

// TestInterAssemblyIndependentOfModeOrder covers the same bug in
// the inter sweep, where addrWB/addrINV (and hccCycles) were loop-carried:
// with Addr after Addr+L, Figure 11's normalization used stale zeros.
func TestInterAssemblyIndependentOfModeOrder(t *testing.T) {
	ref, err := RunInter(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	orig := InterModes
	defer func() { InterModes = orig }()
	InterModes = make([]Mode, len(orig))
	for i, m := range orig {
		InterModes[len(orig)-1-i] = m
	}
	shuffled, err := RunInter(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	sameHeights(t, "Figure 11", barHeights(ref.Figure11), barHeights(shuffled.Figure11))
	sameHeights(t, "Figure 12", barHeights(ref.Figure12), barHeights(shuffled.Figure12))
}

// TestPerRunTimeoutFailsCellsWithLabels drives the real sweep with an
// unmeetable per-run timeout: every cell must fail with a labeled timeout
// error, the sweep must still terminate with a full set of run records,
// and the partial result must carry no figure groups.
func TestPerRunTimeoutFailsCellsWithLabels(t *testing.T) {
	res, err := runInterOpts(context.Background(), ScaleTest,
		RunOptions{Parallel: 2, Timeout: time.Nanosecond})
	if err == nil {
		t.Fatal("expected timeout errors")
	}
	if !strings.Contains(err.Error(), "exceeded timeout") {
		t.Errorf("error %q does not mention the timeout", err)
	}
	if !strings.Contains(err.Error(), "ep/") {
		t.Errorf("error %q lacks workload/config labels", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
	want := len(InterWorkloads(ScaleTest)) * len(InterModes)
	if len(res.Runs) != want {
		t.Errorf("got %d run records, want %d", len(res.Runs), want)
	}
	for _, r := range res.Runs {
		if r.Error == "" {
			t.Errorf("%s/%s should have timed out", r.Workload, r.Config)
		}
	}
	if len(res.Figure12.Groups) != 0 {
		t.Errorf("figure groups assembled from timed-out runs: %d", len(res.Figure12.Groups))
	}
}

// TestShapecheckPassesOnRealResults is the same gate CI's shape job runs:
// the test-scale sweeps must satisfy every expected ordering.
func TestShapecheckPassesOnRealResults(t *testing.T) {
	intra, err := RunIntra(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := RunInter(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	doc := runner.Merge(intra.Document(ScaleTest), inter.Document(ScaleTest))
	if vs := shapecheck.Check(doc); len(vs) != 0 {
		t.Errorf("expected orderings violated:\n%s", shapecheck.Render(vs))
	}
}
