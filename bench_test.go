package hic

// The root benchmarks time what people run: BenchmarkRunIntraBlock is
// the end-to-end Figure 9/10 sweep and BenchmarkManycoreScaling the
// simulator-speed curve of the E9 block-scaling machines (both timed by
// CI's bench job), and BenchmarkObsOverhead (obs_bench_test.go) the
// observability layer's cost. The paper's numbers come from hicsim's
// suites, and the ablation and extension numbers from TestAblationClaims.

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
)

// BenchmarkRunIntraBlock measures the end-to-end Figure 9/10 sweep —
// the repo's hottest path — serially and fanned out across GOMAXPROCS
// workers. The two variants produce identical results (keyed assembly);
// on an N-core runner the parallel variant should approach N× the
// serial throughput.
func BenchmarkRunIntraBlock(b *testing.B) {
	variants := []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runIntraOpts(context.Background(), ScaleBench, RunOptions{Parallel: v.parallel})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Figure9.Groups) != 11 {
					b.Fatalf("incomplete sweep: %d groups", len(res.Figure9.Groups))
				}
			}
			b.ReportMetric(float64(v.parallel), "workers")
		})
	}
}

// BenchmarkManycoreScaling is the wall-clock companion to the E9
// block-scaling experiment: one Jacobi cell per machine size, serial vs
// block-parallel engine, up to 128 blocks × 8 cores. The reported
// sim_cycles per size must be identical across the two engines; ns/op is
// the simulator-speed curve that feeds BENCH_manycore.json.
func BenchmarkManycoreScaling(b *testing.B) {
	blockCounts := ManycoreBlockCounts(128)
	if testing.Short() {
		blockCounts = ManycoreBlockCounts(8)
	}
	for _, eng := range []struct {
		name string
		par  bool
	}{{"serial", false}, {"block-parallel", true}} {
		eng := eng
		b.Run(eng.name, func(b *testing.B) {
			for _, blocks := range blockCounts {
				blocks := blocks
				b.Run("blocks-"+strconv.Itoa(blocks), func(b *testing.B) {
					var r *Result
					for i := 0; i < b.N; i++ {
						m := NewManycoreMachine(blocks, DefaultManycoreCoresPerBlock)
						h := core.New(m, core.Config{Config: scaledCacheConfig(m)})
						h.SetBlockParallel(eng.par)
						w := jacobi.New(jacobi.Bench, m.NumCores())
						var err error
						r, err = w.Run(h, ModeAddrL)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(r.Cycles), "sim_cycles")
				})
			}
		})
	}
}
