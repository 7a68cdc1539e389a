package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/litmus"
)

// pinLitmus is the k=4 enumeration's exploration totals under B+M+I.
const pinLitmus = "programs=17851 runs=92295 schedules=41927 dedup_cuts=48935 states_seen=180027"

// setupLitmus enumerates every litmus program up to k ops; a pass
// explores each one exhaustively under B+M+I, as `litmus -enumerate`
// does, timing every exploration.
func setupLitmus(cfg config) (*instance, error) {
	tests := litmus.Enumerate(litmus.DefaultEnumOptions(cfg.size.litmusK))
	if len(tests) == 0 {
		return nil, fmt.Errorf("k=%d enumerates no programs", cfg.size.litmusK)
	}
	inst := &instance{setupMetric: "litmus.enumerate_s"}
	if cfg.size.pins {
		inst.pin = pinLitmus
	}
	inst.run = func(ctx context.Context, tr *tracer) (*pass, error) {
		p := &pass{}
		var explore time.Duration
		var runs, schedules, cuts, states int
		start := time.Now()
		for _, t := range tests {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			rep, err := litmus.Explore(t, litmus.BMI, litmus.Options{})
			d := time.Since(t0)
			explore += d
			p.itemMS = append(p.itemMS, ms(d))
			switch {
			case err != nil:
				p.fail("%s: %v", t.Name, err)
				continue
			case rep.ViolationSchedules > 0:
				p.fail("%s: %d violating schedules", t.Name, rep.ViolationSchedules)
			case rep.ErrorRuns > 0 || rep.Truncated > 0 || rep.Capped:
				p.fail("%s: exploration not exhaustive", t.Name)
			}
			runs += rep.Runs
			schedules += rep.Schedules
			cuts += rep.DedupCuts
			states += rep.StatesSeen
		}
		p.wall = time.Since(start)
		p.digest = fmt.Sprintf("programs=%d runs=%d schedules=%d dedup_cuts=%d states_seen=%d",
			len(tests), runs, schedules, cuts, states)
		p.cells = map[string]any{"totals": p.digest}
		if tr != nil {
			tr.add("litmus.explore_s", explore.Seconds())
			tr.add("litmus.runs", float64(runs))
			tr.add("litmus.schedules", float64(schedules))
			tr.add("litmus.dedup_cuts", float64(cuts))
			tr.add("litmus.states_seen", float64(states))
		}
		return p, nil
	}
	return inst, nil
}
