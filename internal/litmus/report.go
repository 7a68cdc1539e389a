package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/oracle"
)

// OutcomeInfo aggregates one observed outcome across an exploration.
type OutcomeInfo struct {
	Outcome Outcome `json:"-"`
	// Key is the outcome's canonical rendering.
	Key string `json:"key"`
	// Count is the number of complete schedules producing it.
	Count int `json:"count"`
	// Allowed reports membership in the test's allowed set.
	Allowed bool `json:"allowed"`
	// Sample is one schedule (comma-separated thread IDs in execution
	// order) that produced the outcome, for replay and debugging.
	Sample string `json:"sample"`
}

// ViolationInfo is one oracle violation observed during exploration,
// with the schedule that produced it and a hierarchy probe of where the
// offending value lived.
type ViolationInfo struct {
	Class    string `json:"class"`
	Schedule string `json:"schedule"`
	Detail   string `json:"detail"`
	// Where reports, from the reader's core at detection time, where the
	// stale value was cached (empty for lost updates).
	Where string `json:"where,omitempty"`
	// Addr, Reader, and Writer carry the oracle's attribution fields so
	// downstream judges (internal/fuzzgen) can map a violation back to
	// an annotation site without re-running the schedule.
	Addr   uint32 `json:"addr"`
	Reader int    `json:"reader"`
	Writer int    `json:"writer"`
}

// Report is the result of exhaustively exploring one test under one
// configuration.
type Report struct {
	Test   string `json:"test"`
	Config string `json:"config"`
	// Algo is the exploration algorithm that produced the report
	// (always AlgoDPOR).
	Algo string `json:"algo,omitempty"`

	// Runs counts every engine run the exploration performed, whatever
	// its fate; the accounting invariant is
	//
	//	Runs == Schedules + DeadEnds + Truncated + DedupCuts + ErrorRuns.
	//
	// Schedules counts complete schedules executed; Pruned counts
	// candidate branches cut by the partial-order reduction; DeadEnds
	// counts abandoned redundant prefixes (every candidate pruned or
	// asleep); Truncated counts schedules cut off by the step budget.
	Runs      int   `json:"runs"`
	Schedules int   `json:"schedules"`
	Pruned    int64 `json:"pruned"`
	DeadEnds  int   `json:"dead_ends"`
	Truncated int   `json:"truncated"`
	// DedupCuts counts runs abandoned because the frontier state's
	// fingerprint was already fully explored; StatesSeen is the size of
	// the dedup table at the end (DPOR only).
	DedupCuts  int `json:"dedup_cuts,omitempty"`
	StatesSeen int `json:"states_seen,omitempty"`
	// ErrorRuns counts runs that failed with an engine error; the first
	// few messages are kept in Errors.
	ErrorRuns int `json:"error_runs,omitempty"`
	// Capped is set when the exploration hit MaxSchedules before
	// exhausting the schedule space — the report is then a sample, not a
	// proof.
	Capped bool `json:"capped,omitempty"`
	// EvictionRuns counts runs that evicted at least one cache line.
	// The explorer treats cache-set conflicts as dependencies
	// (isa.Deps), so evictions are explored soundly and merely counted
	// here.
	EvictionRuns int `json:"eviction_runs,omitempty"`

	// Outcomes maps outcome keys to their aggregate info.
	Outcomes map[string]*OutcomeInfo `json:"outcomes"`
	// Violations holds one entry per (schedule, violation) observed,
	// capped at maxViolationsKept.
	Violations []ViolationInfo `json:"violations,omitempty"`
	// ViolationSchedules counts schedules with at least one violation.
	ViolationSchedules int `json:"violation_schedules"`
	// Errors holds engine failures other than scheduler aborts (these
	// indicate a broken test or machine, never a legal outcome).
	Errors []string `json:"errors,omitempty"`
}

// maxViolationsKept caps Report.Violations; ViolationSchedules keeps
// counting past it.
const maxViolationsKept = 16

// SortedOutcomes returns the outcome infos sorted by key, for
// deterministic rendering.
func (r *Report) SortedOutcomes() []*OutcomeInfo {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*OutcomeInfo, len(keys))
	for i, k := range keys {
		out[i] = r.Outcomes[k]
	}
	return out
}

// Verdict holds the pass/fail decision for one report against its
// test's expectation.
type Verdict struct {
	Test   string `json:"test"`
	Config string `json:"config"`
	Expect string `json:"expect"`
	OK     bool   `json:"ok"`
	// Problems lists everything that failed; empty iff OK.
	Problems []string `json:"problems,omitempty"`
}

func (v Verdict) String() string {
	if v.OK {
		return fmt.Sprintf("%s/%s: ok (expect %s)", v.Test, v.Config, v.Expect)
	}
	return fmt.Sprintf("%s/%s: FAIL (expect %s): %s", v.Test, v.Config, v.Expect, strings.Join(v.Problems, "; "))
}

// Verdict judges the report against the test's declared expectation.
func (r *Report) Verdict(t Test) Verdict {
	v := Verdict{Test: r.Test, Config: r.Config, Expect: t.Expect.String()}
	problem := func(format string, args ...interface{}) {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}

	if r.ErrorRuns > 0 {
		problem("%d engine error(s), first: %s", r.ErrorRuns, r.Errors[0])
	}
	if r.Truncated > 0 {
		problem("%d schedule(s) truncated by the step budget: exploration is not exhaustive", r.Truncated)
	}
	if r.Capped {
		problem("schedule cap hit: exploration is not exhaustive")
	}

	var disallowed []*OutcomeInfo
	for _, o := range r.SortedOutcomes() {
		if !o.Allowed {
			disallowed = append(disallowed, o)
		}
	}
	classes := map[string]int{}
	for _, vi := range r.Violations {
		classes[vi.Class]++
	}

	switch t.Expect {
	case ExpectNone:
		if r.ViolationSchedules > 0 {
			problem("%d schedule(s) violated coherence, first: %s", r.ViolationSchedules, r.Violations[0].Detail)
		}
		if len(disallowed) > 0 {
			problem("disallowed outcome %q on %d schedule(s), e.g. schedule %s",
				disallowed[0].Key, disallowed[0].Count, disallowed[0].Sample)
		}
	case ExpectMissingWB, ExpectMissingINV, ExpectLostUpdate:
		want := map[Expectation]oracle.Class{
			ExpectMissingWB:  oracle.MissingWB,
			ExpectMissingINV: oracle.MissingINV,
			ExpectLostUpdate: oracle.LostUpdate,
		}[t.Expect]
		if r.ViolationSchedules == 0 {
			problem("no schedule exposed the expected %s violation", want)
		}
		for c, n := range classes {
			if c != string(want) {
				problem("%d violation(s) attributed to %s, want only %s", n, c, want)
			}
		}
		if len(disallowed) > 0 {
			problem("disallowed outcome %q on %d schedule(s)", disallowed[0].Key, disallowed[0].Count)
		}
	case ExpectForbidden:
		if r.ViolationSchedules > 0 {
			problem("oracle flagged %d schedule(s) on a test it should skip as racy, first: %s",
				r.ViolationSchedules, r.Violations[0].Detail)
		}
		if len(disallowed) == 0 {
			problem("no schedule produced a forbidden outcome")
		}
	default:
		problem("unknown expectation %v", t.Expect)
	}

	for _, req := range t.Requires {
		if o, ok := r.Outcomes[req.Key()]; !ok || o.Count == 0 {
			problem("required outcome %q never observed", req.Key())
		}
	}

	v.OK = len(v.Problems) == 0
	return v
}
