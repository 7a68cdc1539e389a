package hic

// Determinism regression tests: the orchestrator's contract is that the
// hic/v2 results document is a pure function of (suite, scale, options)
// — worker count, scheduling order, and host speed must never leak into
// it. The basic serial-vs-parallel equality lives in
// orchestrator_test.go; these tests pin the harder dimensions that ride
// on top: a seeded fault plan (whose @rand indices must resolve from
// the plan seed, not a per-worker stream) and the coherence oracle
// (whose violation strings become cell errors and thus document bytes).

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestSeededFaultSweepIsDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := func(workers int) RunOptions {
		return RunOptions{
			Parallel:       workers,
			CheckCoherence: true,
			Faults:         "drop-wb@rand; skip-inv@rand; seed=7",
		}
	}
	// Injected faults make cells fail with detected coherence violations;
	// that is the experiment working, so the sweep error is expected and
	// only the documents are compared.
	serial, _ := runIntraOpts(context.Background(), ScaleTest, opts(1))
	parallel, _ := runIntraOpts(context.Background(), ScaleTest, opts(8))
	sj := encodeDoc(t, serial.Document(ScaleTest))
	pj := encodeDoc(t, parallel.Document(ScaleTest))
	if !bytes.Equal(sj, pj) {
		t.Errorf("seeded fault sweep differs between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s", sj, pj)
	}

	var detected int
	for _, r := range serial.Runs {
		if r.Error != "" {
			detected++
			if r.ErrorKind != "coherence" {
				t.Errorf("%s/%s failed with kind %q, want coherence: %s", r.Workload, r.Config, r.ErrorKind, r.Error)
			}
		}
	}
	if detected == 0 {
		t.Error("seeded fault plan injected nothing the oracle detected; the test is vacuous")
	}
}

func TestSeededFaultSweepIsRepeatable(t *testing.T) {
	opts := RunOptions{
		Parallel:       8,
		CheckCoherence: true,
		Faults:         "delay-wb@rand; seed=21",
	}
	a, _ := runIntraOpts(context.Background(), ScaleTest, opts)
	b, _ := runIntraOpts(context.Background(), ScaleTest, opts)
	if !bytes.Equal(encodeDoc(t, a.Document(ScaleTest)), encodeDoc(t, b.Document(ScaleTest))) {
		t.Error("two identical seeded sweeps emitted different documents")
	}
}

func TestOracleSweepIsDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the inter sweep twice")
	}
	serial, err := runInterOpts(context.Background(), ScaleTest, RunOptions{Parallel: 1, CheckCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runInterOpts(context.Background(), ScaleTest, RunOptions{Parallel: 8, CheckCoherence: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDoc(t, serial.Document(ScaleTest)), encodeDoc(t, parallel.Document(ScaleTest))) {
		t.Error("oracle-checked inter-block sweep differs between 1 and 8 workers")
	}
}

// TestFaultedInterSweepIsRepeatable pins the Model 2 failure text: a
// faulted inter cell can also fail output verification, and the
// mismatch it reports must not depend on map iteration order.
func TestFaultedInterSweepIsRepeatable(t *testing.T) {
	opts := RunOptions{Parallel: 2, CheckCoherence: true, Faults: "drop-wb@5; skip-inv@5"}
	a, _ := runInterOpts(context.Background(), ScaleTest, opts)
	verification := 0
	for _, r := range a.Runs {
		if strings.Contains(r.Error, "verification:") {
			verification++
		}
	}
	if verification == 0 {
		t.Fatal("no faulted inter cell failed verification; the test is vacuous")
	}
	want := encodeDoc(t, a.Document(ScaleTest))
	for i := 0; i < 3; i++ {
		b, _ := runInterOpts(context.Background(), ScaleTest, opts)
		if !bytes.Equal(want, encodeDoc(t, b.Document(ScaleTest))) {
			t.Fatal("two identical faulted inter sweeps emitted different documents")
		}
	}
}
