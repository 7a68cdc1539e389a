package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/litmus"
	"repro/internal/runner"
)

// Seeds below fuzzCleanHi pass every campaign cell except fuzzBadSeeds,
// which fail with "mutant detected with wrong attribution" (a known bug;
// see README.md). Campaign windows stay inside that range and avoid
// those seeds, so no operation of the benchmark fails.
const fuzzCleanHi = 801

var fuzzBadSeeds = []uint64{237, 557}

// fuzzWindowStride spreads benchmark seeds 1 to 10 evenly over the clean
// windows; seed 1 is the window starting at 1, the CI campaign's.
const fuzzWindowStride = 20

// fuzzWarmupSeeds is how many of the window's programs set-up runs a
// campaign over before the timed passes.
const fuzzWarmupSeeds = 20

// pinFuzz maps the first seed of the windows of benchmark seeds 1 to 10
// to the SHA-256 of the report `hicfuzz -seeds lo:lo+200 -json` prints.
var pinFuzz = map[uint64]string{
	1:   "5adda88aa0122f1e9405435d518646edf6d39d8172d17afc348cc6936c33c518",
	21:  "b24a4dd404fd8a75be920642581b2a6a2923edbec8add1783cafa676b3ddace1",
	241: "2af030b37cf606183bacc15cd2d462b0c24a2cb5295da5a05d4b2604f3511991",
	261: "6855538e29bb7776021b4d7cf1a869bda54489362ade896156b0238f3e1c984f",
	281: "1a68b88112374a3d6fcc51bf1ea0e4528ec261ea900160eba69b7b675dd782ed",
	301: "0552bb95bca55e7372c0fb259a87fd7e359f42f204fc4505335b8126d87f2679",
	321: "4f15e09497f7984c997e87984b8156ae92598d2be92d76eb3cda4a502e6749c8",
	341: "82f3aa7e5834b4dd33ecaff0c5a45c0f4afdfa3f3e82c160f9f2163850777080",
	561: "06d97afb6c4d2e14d9cce09d73c02889bd1f866b28bc032d018fa06561800e8d",
	581: "660bfc5fbd5841448ba48a49dfb217ebcb298db504b266cac2c949f67c359c1b",
}

// fuzzMutants matches fuzzgen.Campaign's default mutants per program.
const fuzzMutants = 2

// fuzzConfigs matches fuzzgen.Campaign's default configuration matrix.
var fuzzConfigs = []litmus.Config{litmus.Base, litmus.BM, litmus.BI, litmus.BMI}

// fuzzWindow picks the campaign's seed range [lo, lo+n) for a benchmark
// seed.
func fuzzWindow(seed int64, n uint64) uint64 {
	var lows []uint64
	for lo := uint64(1); lo+n <= fuzzCleanHi; lo++ {
		clean := true
		for _, b := range fuzzBadSeeds {
			if b >= lo && b < lo+n {
				clean = false
			}
		}
		if clean {
			lows = append(lows, lo)
		}
	}
	k := int64(len(lows))
	return lows[(((seed-1)*fuzzWindowStride)%k+k)%k]
}

// setupFuzz generates and validates the window's programs and warms up
// with a campaign over the first few; a pass runs the campaign over all
// of them.
func setupFuzz(cfg config) (*instance, error) {
	n := cfg.size.fuzzSeeds
	lo := fuzzWindow(cfg.seed, n)
	for s := lo; s < lo+n; s++ {
		if err := fuzzgen.Gen(s).Test.Validate(); err != nil {
			return nil, fmt.Errorf("seed %d: %w", s, err)
		}
	}
	if _, err := fuzzgen.Campaign(context.Background(), fuzzgen.Options{
		SeedLo: lo, SeedHi: lo + min(n, fuzzWarmupSeeds), Parallel: workers,
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	inst := &instance{}
	if cfg.size.pins {
		inst.pin = pinFuzz[lo]
	}
	inst.run = func(ctx context.Context, tr *tracer) (*pass, error) {
		if tr != nil {
			return tracedCampaign(ctx, tr, lo, lo+n)
		}
		start := time.Now()
		// The error joins the failed cells' errors, which their run
		// records carry too; the report is complete either way.
		rep, _ := fuzzgen.Campaign(ctx, fuzzgen.Options{SeedLo: lo, SeedHi: lo + n, Parallel: workers})
		p := &pass{wall: time.Since(start), cells: map[string]any{}}
		for i, r := range rep.Runs {
			p.itemMS = append(p.itemMS, r.WallMS)
			if r.Error != "" {
				p.fail("%s/%s: %s", r.Workload, r.Config, r.Error)
			}
			rep.Runs[i].WallMS = 0
			p.cells[r.Workload+"/"+r.Config] = rep.Runs[i]
		}
		detected := 0
		for _, byCfg := range rep.Detected {
			for _, c := range byCfg {
				detected += c
			}
		}
		p.cells["detected"] = detected
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(append(b, '\n'))
		p.digest = hex.EncodeToString(sum[:])
		return p, nil
	}
	return inst, nil
}

// tracedCampaign runs the campaign's cells through the runner, as
// fuzzgen.Campaign does, with Gen, Check and Judge timed.
func tracedCampaign(ctx context.Context, tr *tracer, lo, hi uint64) (*pass, error) {
	var detected atomic.Int64
	var tasks []runner.Task
	for seed := lo; seed < hi; seed++ {
		for _, cfg := range fuzzConfigs {
			tasks = append(tasks, runner.Task{
				Workload: fmt.Sprintf("s%d", seed),
				Config:   cfg.Name,
				Run: func(context.Context) (*runner.Outcome, error) {
					return tracedFuzzCell(tr, seed, cfg, &detected)
				},
			})
		}
	}
	start := time.Now()
	grid := runner.Run(ctx, tasks, runner.Options{Parallel: workers})
	p := &pass{wall: time.Since(start), cells: map[string]any{}}
	recs := grid.Records()
	for i, c := range grid.Cells() {
		tr.add("runner.busy_s", c.Wall.Seconds())
		p.itemMS = append(p.itemMS, ms(c.Wall))
		if c.Err != nil {
			p.fail("%s/%s: %v", c.Workload, c.Config, c.Err)
		}
		recs[i].WallMS = 0
		p.cells[c.Workload+"/"+c.Config] = recs[i]
	}
	p.cells["detected"] = int(detected.Load())
	return p, nil
}

// tracedFuzzCell is one campaign cell: the annotated program must be
// violation-free and engine-stable, and every mutant must be detected
// with attribution or masked.
func tracedFuzzCell(tr *tracer, seed uint64, cfg litmus.Config, detected *atomic.Int64) (*runner.Outcome, error) {
	var p fuzzgen.Program
	tr.time("fuzzgen.gen_s", func() { p = fuzzgen.Gen(seed) })
	var ann fuzzgen.CheckResult
	tr.time("fuzzgen.check_s", func() { ann = fuzzgen.Check(p.Test, cfg) })
	switch {
	case ann.Err != nil:
		return nil, fmt.Errorf("annotated program failed: %w", ann.Err)
	case len(ann.Violations) > 0:
		return nil, fmt.Errorf("annotated program raised %d oracle violation(s)", len(ann.Violations))
	case ann.Diverged != "":
		return nil, fmt.Errorf("annotated program diverged across engines")
	}
	for _, m := range fuzzgen.Mutants(p, fuzzMutants) {
		var v fuzzgen.Verdict
		tr.time("fuzzgen.judge_s", func() { v = fuzzgen.Judge(p, m, cfg) })
		tr.add("fuzzgen.mutants", 1)
		switch {
		case v.Err != nil:
			return nil, fmt.Errorf("mutant %s failed: %w", m.Test.Name, v.Err)
		case v.Diverged != "":
			return nil, fmt.Errorf("mutant %s diverged across engines", m.Test.Name)
		case v.BadAttribution != "":
			return nil, fmt.Errorf("mutant %s detected with wrong attribution: %s", m.Test.Name, v.BadAttribution)
		case v.Detected:
			tr.add("fuzzgen.detected", 1)
			detected.Add(1)
		}
	}
	return &runner.Outcome{Result: ann.Result}, nil
}
