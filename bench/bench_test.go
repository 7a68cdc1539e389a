package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	hic "repro"
)

// smokeSize runs every workload's code paths in a few seconds.
var smokeSize = size{
	scale:     hic.ScaleTest,
	intraApps: []string{"fft"},
	interApps: []string{"ep"},
	maxBlocks: 2,
	litmusK:   2,
	fuzzSeeds: 10,
	serveApps: []string{"fft", "cholesky", "raytrace", "water-sp"},
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloadsSmoke runs every workload untraced and traced at the
// smoke size: each run must be correct (which includes the traced pass
// reproducing the untraced results) and must report exactly the metrics
// BENCHMARK.json lists, with its units, all finite.
func TestWorkloadsSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res, err := run(context.Background(), config{
					workload: w.Name, seed: 1, seconds: 1e-3, trace: trace,
					size: smokeSize,
				})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, m.Name, got.Value)
					}
				}
			}
		})
	}
}

// TestServeSequence checks the serve-mix request model: every pair is
// cold once, every cellwarm pair's cells were computed under its seed
// earlier, every warm request repeats an earlier one, and 40% are warm.
func TestServeSequence(t *testing.T) {
	apps := []string{"a", "b", "c", "d", "e", "f", "g"}
	seq := serveSequence(rand.New(rand.NewPCG(7, 0)), 0, apps)
	computed := map[int64]map[string]bool{}
	seen := map[serveReq]bool{}
	count := map[string]int{}
	cold := map[[2]string]int{}
	for i, r := range seq {
		count[r.class]++
		key := serveReq{apps: r.apps, seed: r.seed}
		switch r.class {
		case "cold":
			cold[r.apps]++
			for _, a := range r.apps {
				if computed[r.seed][a] {
					t.Errorf("request %d: cold %v under seed %d reuses application %s", i, r.apps, r.seed, a)
				}
			}
			if computed[r.seed] == nil {
				computed[r.seed] = map[string]bool{}
			}
			computed[r.seed][r.apps[0]], computed[r.seed][r.apps[1]] = true, true
		case "cellwarm":
			if seen[key] || !computed[r.seed][r.apps[0]] || !computed[r.seed][r.apps[1]] {
				t.Errorf("request %d: cellwarm %v under seed %d is not a new pair of computed applications", i, r.apps, r.seed)
			}
		case "warm":
			if !seen[key] {
				t.Errorf("request %d: warm %v under seed %d repeats nothing earlier", i, r.apps, r.seed)
			}
		}
		seen[key] = true
	}
	if n := len(apps) * (len(apps) - 1) / 2; len(cold) != n || count["cold"] != n {
		t.Errorf("%d cold requests over %d pairs, want each of %d pairs once", count["cold"], len(cold), n)
	}
	if frac := float64(count["warm"]) / float64(len(seq)); math.Abs(frac-0.4) > 0.01 {
		t.Errorf("warm fraction %.3f, want 0.4", frac)
	}
}

func TestBucketTraces(t *testing.T) {
	const traces = `File: hicbench
Type: cpu
-----------+-------------------------------------------------------
    config:  Base
  workload:  lu-cont
      30ms   runtime.memmove
             repro/internal/cache.(*Cache).Lookup (inline)
             repro/internal/core.(*Hierarchy).Load
             repro/internal/engine.(*Engine).execOp
-----------+-------------------------------------------------------
      10ms   runtime.mcall
-----------+-------------------------------------------------------
      40ms   repro/internal/apps/splash.LU.func5
             repro/internal/engine.(*Engine).RunCtx.guestSeq.func1
-----------+-------------------------------------------------------
      10ms   time.Now
             main.(*timedHier).Load
             repro/internal/engine.(*Engine).execOp
-----------+-------------------------------------------------------
      10ms   repro/internal/isa.Deps
             repro.intraTasks.func1
-----------+-------------------------------------------------------
`
	shares, samples, err := bucketTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cache": 0.3, "runtime": 0.1, "apps": 0.4, "bench": 0.1, "other": 0.1}
	for _, b := range profBuckets {
		if got := shares["prof."+b+"_frac"]; math.Abs(got-want[b]) > 1e-9 {
			t.Errorf("prof.%s_frac = %v, want %v", b, got, want[b])
		}
	}
	if samples != 50 {
		t.Errorf("samples = %d, want 50 (100ms at %d Hz)", samples, profileHz)
	}
}
