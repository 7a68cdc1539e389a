package hic

// Differential tests for the block-parallel executor on the real Model 2
// workloads. Sweeps always run on the serial engine; the executor
// survives only as a differential oracle (fuzzgen's third leg), so these
// tests drive it directly through core.Hierarchy.SetBlockParallel on
// multi-block machines and require every cell to reproduce the serial
// sweep's outcome exactly — including the cells whose recorder or fault
// plan must keep the hierarchy from sharding. They also keep the
// 1024-core topology inside the tier-1 budget.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// interCellsOnExecutor reruns every incoherent cell of the inter sweep
// res, which ran under opts, on a hierarchy opted into the executor and
// built the way the sweep's task body builds it. Each cell must return
// the sweep's outcome: the same error, or the same result, global WB/INV
// counts and (with metrics) snapshot. wantShards is the shard count the
// hierarchy must report once opts' recorder and fault state are
// attached: 4 when the executor engages, 1 when they force serial.
func interCellsOnExecutor(t *testing.T, res *InterResult, opts RunOptions, wantShards int) {
	t.Helper()
	records := map[[2]string]runner.RunRecord{}
	for _, r := range res.Runs {
		records[[2]string{r.Workload, r.Config}] = r
	}
	for i, w := range InterWorkloads(ScaleTest) {
		for _, mode := range InterModes {
			if mode == ModeHCC {
				continue // MESI hierarchy: never sharded
			}
			cell := w.Name + "/" + mode.String()
			want := records[[2]string{w.Name, mode.String()}]
			wl := InterWorkloads(ScaleTest)[i]
			h := NewModeHierarchy(NewInterMachine(), mode).(*core.Hierarchy)
			h.SetBlockParallel(true)
			c := wl.Cell(h, mode)
			c.Recorder = opts.instrument(h)
			var err error
			if c.Oracle, err = opts.checks(h, wl.Threads); err != nil {
				t.Fatal(err)
			}
			if got := h.ParallelShards(); got != wantShards {
				t.Fatalf("%s: %d shards, want %d", cell, got, wantShards)
			}
			r, err := c.Run(context.Background())
			if err != nil || want.Error != "" {
				if err == nil || err.Error() != want.Error {
					t.Errorf("%s: error %v on the executor, %q serial", cell, err, want.Error)
				}
				continue
			}
			if serial := res.Raw[w.Name][mode.String()]; !reflect.DeepEqual(r, serial) {
				t.Errorf("%s: result differs from the serial sweep:\nserial: %+v\nblock-parallel: %+v", cell, serial, r)
			}
			if wb, inv := h.GlobalOps(); wb != want.GlobalWB || inv != want.GlobalINV {
				t.Errorf("%s: global WB/INV %d/%d on the executor, %d/%d serial", cell, wb, inv, want.GlobalWB, want.GlobalINV)
			}
			if opts.Metrics && !reflect.DeepEqual(c.Recorder.Snapshot(), want.Metrics) {
				t.Errorf("%s: metrics snapshot differs from the serial sweep's", cell)
			}
		}
	}
}

// TestBlockParallelInterSweepMatchesSerial is the executor's determinism
// gate on the inter-block machine: it has four blocks, so every
// incoherent cell really takes the sharded path.
func TestBlockParallelInterSweepMatchesSerial(t *testing.T) {
	opts := NewRunOptions(WithParallel(2))
	res, err := runInterOpts(context.Background(), ScaleTest, opts)
	if err != nil {
		t.Fatal(err)
	}
	interCellsOnExecutor(t, res, opts, 4)
}

// TestBlockParallelMetricsSnapshotsMatchSerial: a recorder samples
// freely across cores, so an attached one must keep the hierarchy from
// sharding, and the snapshot must equal the serial sweep's.
func TestBlockParallelMetricsSnapshotsMatchSerial(t *testing.T) {
	opts := NewRunOptions(WithParallel(2), WithMetrics())
	res, err := runInterOpts(context.Background(), ScaleTest, opts)
	if err != nil {
		t.Fatal(err)
	}
	interCellsOnExecutor(t, res, opts, 1)
}

// TestBlockParallelSeededFaultSweepMatchesSerial: a fault plan's cursors
// are global state, so it must keep the hierarchy from sharding, and the
// seeded cells must fail (or pass) exactly as in the serial sweep.
func TestBlockParallelSeededFaultSweepMatchesSerial(t *testing.T) {
	opts := NewRunOptions(WithParallel(2), WithCoherenceCheck(),
		WithFaultPlan("drop-wb@5; skip-inv@5"))
	// Injected faults make cells fail with detected coherence
	// violations; that is the experiment working, so the sweep's error
	// is not checked here — each cell's is, against the executor's.
	res, _ := runInterOpts(context.Background(), ScaleTest, opts)
	failed := 0
	for _, r := range res.Runs {
		if r.Error != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("the fault plan made no cell fail")
	}
	interCellsOnExecutor(t, res, opts, 1)
}

// TestManycoreSweepMatchesSerial reruns the block-scaling sweep's
// multi-block cells (2 and 4 blocks) under the executor and requires
// results identical to the serial sweep's.
func TestManycoreSweepMatchesSerial(t *testing.T) {
	blocks := []int{1, 2, 4}
	res, err := RunManycore(context.Background(), ScaleTest, blocks, DefaultManycoreCoresPerBlock)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Groups) != 2 {
		t.Fatalf("curve has %d groups, want 2", len(res.Curve.Groups))
	}
	for _, b := range blocks[1:] {
		for _, wl := range ManycoreWorkloads(ScaleTest, b*DefaultManycoreCoresPerBlock) {
			h := NewModeHierarchy(NewManycoreMachine(b, DefaultManycoreCoresPerBlock), ModeAddrL).(*core.Hierarchy)
			h.SetBlockParallel(true)
			if h.ParallelShards() != b {
				t.Fatalf("%s/blocks-%d: %d shards", wl.Name, b, h.ParallelShards())
			}
			got, err := wl.Run(h, ModeAddrL)
			if err != nil {
				t.Fatalf("%s/blocks-%d on the executor: %v", wl.Name, b, err)
			}
			if want := res.Raw[wl.Name][b]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s/blocks-%d: result differs from the serial sweep:\nserial: %+v\nblock-parallel: %+v", wl.Name, b, want, got)
			}
		}
	}
}

// TestManycoreSmoke is the 1024-core smoke cell: one tiny Jacobi run on
// the 128-block machine, inside the tier-1 budget. It pins that the full
// topology — 32×32 mesh, 128 L2s, 1024 thread contexts — actually builds
// and runs.
func TestManycoreSmoke(t *testing.T) {
	res, err := RunManycore(context.Background(), ScaleTest, []int{128}, DefaultManycoreCoresPerBlock, WithOnly("jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res.Raw["jacobi"][128]
	if !ok {
		t.Fatal("128-block jacobi cell produced no result")
	}
	if r.Cycles <= 0 {
		t.Fatalf("128-block jacobi simulated %d cycles", r.Cycles)
	}
}
