package litmus

import (
	"fmt"

	"repro/internal/engine"
)

// unpruned is the explorer's test-only reference scheduler: a plain
// depth-first walk over every candidate at every decision, with no
// partial-order reduction and no state dedup. It shares no scheduling
// logic with dpor.go, so agreement between the two checks DPOR's
// pruning instead of restating it.
type unpruned struct {
	choice    []int // candidate index per decision; replayed, then extended with 0
	width     []int // candidate count per decision of the current run
	sched     []int // executed thread per decision of the current run
	budget    int
	truncated bool
}

func (u *unpruned) Pick(cands []engine.Candidate) int {
	d := len(u.width)
	if d >= u.budget {
		u.truncated = true
		return -1
	}
	if d == len(u.choice) {
		u.choice = append(u.choice, 0)
	}
	c := u.choice[d]
	u.width = append(u.width, len(cands))
	u.sched = append(u.sched, cands[c].Thread)
	return c
}

// exploreUnpruned runs t under cfg through every schedule on a pooled
// litmus machine and returns the report together with the set of every
// violation class observed (Report.Violations keeps only the first few).
func exploreUnpruned(t Test, cfg Config) (*Report, map[string]bool) {
	rep := &Report{Test: t.Name, Config: cfg.Name, Outcomes: map[string]*OutcomeInfo{}}
	classes := map[string]bool{}
	pool := machinePool(cfg)
	m := pool.Get().(*machine)
	defer pool.Put(m)
	m.load(t, cfg)
	u := &unpruned{budget: Options{}.withDefaults().Budget}
	for {
		m.reset()
		u.width, u.sched, u.truncated = u.width[:0], u.sched[:0], false
		m.e.SetScheduler(u)
		_, err := m.e.Run()
		rep.Runs++
		switch {
		case u.truncated:
			rep.Truncated++
		case err != nil:
			rep.ErrorRuns++
			rep.Errors = append(rep.Errors, fmt.Sprintf("schedule %v: %v", u.sched, err))
		default:
			m.finish(t, rep, u.sched)
			for _, v := range m.o.Violations() {
				classes[string(v.Class)] = true
			}
		}
		// Advance the deepest decision that has an untried candidate.
		d := len(u.width) - 1
		for d >= 0 && u.choice[d]+1 >= u.width[d] {
			d--
		}
		if d < 0 {
			return rep, classes
		}
		u.choice = append(u.choice[:d], u.choice[d]+1)
	}
}
