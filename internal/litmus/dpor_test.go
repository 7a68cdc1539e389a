package litmus

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

// allConfigs is the full configuration matrix the equivalence gate runs:
// the standard three plus the fuzz-only single-buffer points.
var allConfigs = []Config{Base, BMI, Adaptive, BM, BI}

// goldenSchedules pins, for every suite test (and the four-thread
// mp-pair-annotated) under every configuration, the number of complete
// schedules DPOR needs; a drift means the explorer's pruning changed and
// must be re-derived deliberately. The Swap column is frozen history:
// the schedule counts of the adjacent-swap explorer DPOR replaced, which
// no longer exists to recompute them. DPOR must stay at or below them.
var goldenSchedules = []struct {
	Test   string
	Config string
	DPOR   int
	Swap   int
}{
	{"mp-annotated", "Base", 2, 4},
	{"mp-annotated", "B+M+I", 2, 4},
	{"mp-annotated", "Adaptive", 2, 4},
	{"mp-annotated", "B+M", 2, 4},
	{"mp-annotated", "B+I", 2, 4},
	{"mp-nowb", "Base", 2, 3},
	{"mp-nowb", "B+M+I", 2, 3},
	{"mp-nowb", "Adaptive", 2, 3},
	{"mp-nowb", "B+M", 2, 3},
	{"mp-nowb", "B+I", 2, 3},
	{"mp-noinv", "Base", 6, 10},
	{"mp-noinv", "B+M+I", 6, 10},
	{"mp-noinv", "Adaptive", 6, 10},
	{"mp-noinv", "B+M", 6, 10},
	{"mp-noinv", "B+I", 6, 10},
	{"sb", "Base", 5, 11},
	{"sb", "B+M+I", 5, 11},
	{"sb", "Adaptive", 5, 11},
	{"sb", "B+M", 5, 11},
	{"sb", "B+I", 5, 11},
	{"lb", "Base", 5, 5},
	{"lb", "B+M+I", 5, 5},
	{"lb", "Adaptive", 5, 5},
	{"lb", "B+M", 5, 5},
	{"lb", "B+I", 5, 5},
	{"corr", "Base", 5, 15},
	{"corr", "B+M+I", 5, 15},
	{"corr", "Adaptive", 5, 15},
	{"corr", "B+M", 5, 15},
	{"corr", "B+I", 5, 15},
	{"coww", "Base", 6, 6},
	{"coww", "B+M+I", 6, 6},
	{"coww", "Adaptive", 6, 6},
	{"coww", "B+M", 6, 6},
	{"coww", "B+I", 6, 6},
	{"barrier", "Base", 2, 56},
	{"barrier", "B+M+I", 2, 56},
	{"barrier", "Adaptive", 2, 56},
	{"barrier", "B+M", 2, 56},
	{"barrier", "B+I", 2, 56},
	{"lock-annotated", "Base", 4, 36},
	{"lock-annotated", "B+M+I", 4, 10},
	{"lock-annotated", "Adaptive", 4, 36},
	{"lock-annotated", "B+M", 4, 36},
	{"lock-annotated", "B+I", 4, 10},
	{"lock-nowb", "Base", 4, 7},
	{"lock-nowb", "B+M+I", 4, 7},
	{"lock-nowb", "Adaptive", 4, 7},
	{"lock-nowb", "B+M", 4, 7},
	{"lock-nowb", "B+I", 4, 7},
	{"lock-noinv", "Base", 8, 17},
	{"lock-noinv", "B+M+I", 8, 17},
	{"lock-noinv", "Adaptive", 8, 17},
	{"lock-noinv", "B+M", 8, 17},
	{"lock-noinv", "B+I", 8, 17},
	{"lock-lostupdate", "Base", 4, 7},
	{"lock-lostupdate", "B+M+I", 4, 7},
	{"lock-lostupdate", "Adaptive", 4, 7},
	{"lock-lostupdate", "B+M", 4, 7},
	{"lock-lostupdate", "B+I", 4, 7},
	{"flag-annotated", "Base", 2, 4},
	{"flag-annotated", "B+M+I", 2, 4},
	{"flag-annotated", "Adaptive", 2, 4},
	{"flag-annotated", "B+M", 2, 4},
	{"flag-annotated", "B+I", 2, 4},
	{"flag-nowb", "Base", 2, 3},
	{"flag-nowb", "B+M+I", 2, 3},
	{"flag-nowb", "Adaptive", 2, 3},
	{"flag-nowb", "B+M", 2, 3},
	{"flag-nowb", "B+I", 2, 3},
	{"flag-noinv", "Base", 6, 10},
	{"flag-noinv", "B+M+I", 6, 10},
	{"flag-noinv", "Adaptive", 6, 10},
	{"flag-noinv", "B+M", 6, 10},
	{"flag-noinv", "B+I", 6, 10},
	{"race-annotated", "Base", 7, 20},
	{"race-annotated", "B+M+I", 7, 20},
	{"race-annotated", "Adaptive", 7, 20},
	{"race-annotated", "B+M", 7, 20},
	{"race-annotated", "B+I", 7, 20},
	{"fuzz-csexit-nowb", "Base", 4, 30},
	{"fuzz-csexit-nowb", "B+M+I", 4, 9},
	{"fuzz-csexit-nowb", "Adaptive", 4, 30},
	{"fuzz-csexit-nowb", "B+M", 4, 30},
	{"fuzz-csexit-nowb", "B+I", 4, 9},
	{"fuzz-notify-nowb", "Base", 2, 60},
	{"fuzz-notify-nowb", "B+M+I", 2, 60},
	{"fuzz-notify-nowb", "Adaptive", 2, 60},
	{"fuzz-notify-nowb", "B+M", 2, 60},
	{"fuzz-notify-nowb", "B+I", 2, 60},
	{"fuzz-await-noinv", "Base", 6, 210},
	{"fuzz-await-noinv", "B+M+I", 6, 210},
	{"fuzz-await-noinv", "Adaptive", 6, 210},
	{"fuzz-await-noinv", "B+M", 6, 210},
	{"fuzz-await-noinv", "B+I", 6, 210},
	{"race-nowb-payload", "Base", 6, 17},
	{"race-nowb-payload", "B+M+I", 6, 17},
	{"race-nowb-payload", "Adaptive", 6, 17},
	{"race-nowb-payload", "B+M", 6, 17},
	{"race-nowb-payload", "B+I", 6, 17},
	{"mp-pair-annotated", "Base", 4, 1908},
	{"mp-pair-annotated", "B+M+I", 8, 8396},
	{"mp-pair-annotated", "Adaptive", 4, 1908},
	{"mp-pair-annotated", "B+M", 8, 4160},
	{"mp-pair-annotated", "B+I", 8, 4956},
}

// goldenFor returns the pinned (DPOR, frozen swap) schedule counts.
func goldenFor(test, config string) (dpor, swap int, ok bool) {
	for _, g := range goldenSchedules {
		if g.Test == test && g.Config == config {
			return g.DPOR, g.Swap, true
		}
	}
	return 0, 0, false
}

// outcomeKeys returns the sorted outcome-key set of a report.
func outcomeKeys(r *Report) []string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// violationClasses returns the sorted distinct violation classes.
func violationClasses(r *Report) []string {
	set := map[string]bool{}
	for _, v := range r.Violations {
		set[v.Class] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDPORSwapEquivalence is the explorer's reference gate: on every
// enumerated program up to k=3 under Configs, and on every Suite and
// ExtraSuite test under allConfigs, source-DPOR and the unpruned
// enumerator must agree on the outcome-key set, the outcomes' allowed
// bits, the set of violation classes, and the verdict. Suite tests
// additionally pin DPOR's schedule count in goldenSchedules, at or
// below the frozen adjacent-swap count.
func TestDPORSwapEquivalence(t *testing.T) {
	var cases []poolCase
	for _, tc := range Enumerate(enumGateOptions(3)) {
		for _, cfg := range Configs {
			cases = append(cases, poolCase{tc, cfg})
		}
	}
	cases = append(cases, poolCases()...)
	for _, c := range cases {
		tc, cfg := c.test, c.cfg
		d, err := Explore(tc, cfg, Options{})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.Name, cfg.Name, err)
		}
		u, uClasses := exploreUnpruned(tc, cfg)
		if got, want := outcomeKeys(d), outcomeKeys(u); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: outcome sets differ: dpor %v, unpruned %v", tc.Name, cfg.Name, got, want)
		}
		for k, od := range d.Outcomes {
			if ou, ok := u.Outcomes[k]; ok && od.Allowed != ou.Allowed {
				t.Errorf("%s/%s: outcome %q allowed bit differs", tc.Name, cfg.Name, k)
			}
		}
		if got, want := violationClasses(d), sortedKeys(uClasses); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: violation classes differ: dpor %v, unpruned %v", tc.Name, cfg.Name, got, want)
		}
		if dv, uv := d.Verdict(tc), u.Verdict(tc); dv.OK != uv.OK {
			t.Errorf("%s/%s: verdicts differ: dpor %v, unpruned %v", tc.Name, cfg.Name, dv, uv)
		}
		if d.Schedules > u.Schedules {
			t.Errorf("%s/%s: dpor explored MORE schedules (%d) than exist (%d)",
				tc.Name, cfg.Name, d.Schedules, u.Schedules)
		}
		dpor, swap, ok := goldenFor(tc.Name, cfg.Name)
		if !ok {
			if slices.ContainsFunc(Suite, func(s Test) bool { return s.Name == tc.Name }) {
				t.Errorf("%s/%s: missing golden entry: {%q, %q, %d, ?}", tc.Name, cfg.Name, tc.Name, cfg.Name, d.Schedules)
			}
			continue
		}
		if d.Schedules != dpor {
			t.Errorf("%s/%s: dpor schedule count %d drifted from golden %d", tc.Name, cfg.Name, d.Schedules, dpor)
		}
		if d.Schedules > swap {
			t.Errorf("%s/%s: dpor explored MORE schedules (%d) than adjacent-swap did (%d)",
				tc.Name, cfg.Name, d.Schedules, swap)
		}
	}
}

// TestDPORStrictWin: on the 4-thread disjoint-pair test, DPOR's refined
// dependence relation (sync ops independent across primitive IDs) plus
// state dedup must beat adjacent-swap's frozen counts by a strict
// margin, not just tie.
func TestDPORStrictWin(t *testing.T) {
	tc, ok := SuiteTest("mp-pair-annotated")
	if !ok {
		t.Fatal("mp-pair-annotated missing")
	}
	for _, cfg := range allConfigs {
		d, err := Explore(tc, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, swap, ok := goldenFor(tc.Name, cfg.Name)
		if !ok {
			t.Fatalf("%s: no frozen swap count", cfg.Name)
		}
		if d.Schedules >= swap {
			t.Errorf("%s: dpor %d schedules, swap %d: want strictly fewer", cfg.Name, d.Schedules, swap)
		}
		if v := d.Verdict(tc); !v.OK {
			t.Errorf("%s: %v", cfg.Name, v)
		}
	}
}

// TestExtraSuite runs the extra tests (4-thread pair and the packed
// variants the explorer used to reject) to a passing verdict under DPOR,
// and checks the packed fuzz repros still expose their violations.
func TestExtraSuite(t *testing.T) {
	for _, tc := range ExtraSuite {
		for _, cfg := range Configs {
			v, rep, err := Run(tc, cfg, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.Name, cfg.Name, err)
			}
			if !v.OK {
				t.Errorf("%s/%s: %v", tc.Name, cfg.Name, v)
			}
			if tc.Expect != ExpectNone && rep.ViolationSchedules == 0 {
				t.Errorf("%s/%s: expected violations, saw none", tc.Name, cfg.Name)
			}
		}
	}
}
