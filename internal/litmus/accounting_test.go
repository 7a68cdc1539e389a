package litmus

import (
	"repro/internal/mem"

	"testing"
)

// checkAccounting asserts the report's run-accounting invariant: every
// engine run is classified exactly once.
func checkAccounting(t *testing.T, label string, r *Report) {
	t.Helper()
	sum := r.Schedules + r.DeadEnds + r.Truncated + r.DedupCuts + r.ErrorRuns
	if r.Runs != sum {
		t.Errorf("%s: Runs=%d but Schedules+DeadEnds+Truncated+DedupCuts+ErrorRuns=%d (%d+%d+%d+%d+%d)",
			label, r.Runs, sum, r.Schedules, r.DeadEnds, r.Truncated, r.DedupCuts, r.ErrorRuns)
	}
	if r.Runs <= 0 {
		t.Errorf("%s: no runs recorded", label)
	}
}

// TestExplorerAccounting sweeps the explorer across the suite and a
// range of budgets, checking the accounting invariant everywhere and the
// budget semantics: a sufficient budget reports zero truncation and is
// insensitive to further increases, while a starvation budget truncates.
func TestExplorerAccounting(t *testing.T) {
	for _, tc := range Suite {
		full, err := Explore(tc, Base, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		checkAccounting(t, tc.Name, full)
		if full.Truncated != 0 || full.Capped {
			t.Errorf("%s: default budget truncated (%d) or capped", tc.Name, full.Truncated)
		}

		// A bigger budget must change nothing: the default already
		// covers every schedule to completion.
		bigger, err := Explore(tc, Base, Options{Budget: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if bigger.Schedules != full.Schedules || bigger.Runs != full.Runs || bigger.Pruned != full.Pruned {
			t.Errorf("%s: budget 4096 changed the exploration: %d/%d/%d schedules/runs/pruned vs %d/%d/%d",
				tc.Name, bigger.Schedules, bigger.Runs, bigger.Pruned,
				full.Schedules, full.Runs, full.Pruned)
		}

		// A starvation budget must truncate (every suite program needs
		// more than two decisions) and still account for each run.
		starved, err := Explore(tc, Base, Options{Budget: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, tc.Name+"/starved", starved)
		if starved.Truncated == 0 {
			t.Errorf("%s: budget 2 did not truncate", tc.Name)
		}
		if v := starved.Verdict(tc); v.OK {
			t.Errorf("%s: truncated exploration still passed the verdict", tc.Name)
		}
	}
}

// TestExplorerScheduleCap: hitting MaxSchedules sets Capped, keeps the
// accounting exact, and fails the verdict.
func TestExplorerScheduleCap(t *testing.T) {
	tc, _ := SuiteTest("sb")
	rep, err := Explore(tc, Base, Options{MaxSchedules: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, "sb/capped", rep)
	if !rep.Capped {
		t.Error("cap of 3 runs not reported")
	}
	if rep.Runs != 3 {
		t.Errorf("want exactly 3 runs under the cap, got %d", rep.Runs)
	}
	if v := rep.Verdict(tc); v.OK {
		t.Error("capped exploration still passed the verdict")
	}
}

// TestExplorerSingleThread: with one thread there is exactly one
// schedule — one complete run, nothing pruned, dead-ended, or cut.
func TestExplorerSingleThread(t *testing.T) {
	tc := Test{
		Name: "single",
		Vars: 1, Regs: 1,
		Threads:  [][]Instr{{Store(0, 7), WB(0), Load(0, 0)}},
		Allowed:  []Outcome{{Regs: []mem.Word{7}}},
		Requires: []Outcome{{Regs: []mem.Word{7}}},
		Expect:   ExpectNone,
	}
	rep, err := Explore(tc, Base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 || rep.Schedules != 1 || rep.Pruned != 0 || rep.DeadEnds != 0 || rep.DedupCuts != 0 {
		t.Errorf("single-thread exploration not trivial: runs=%d schedules=%d pruned=%d deadends=%d cuts=%d",
			rep.Runs, rep.Schedules, rep.Pruned, rep.DeadEnds, rep.DedupCuts)
	}
	if v := rep.Verdict(tc); !v.OK {
		t.Error(v)
	}
}

// TestDPORNoDedup: disabling the dedup table must preserve the outcome
// set and violation classes (it only remerges subtrees), with at least
// as many schedules.
func TestDPORNoDedup(t *testing.T) {
	for _, name := range []string{"mp-noinv", "barrier", "lock-annotated", "fuzz-await-noinv"} {
		tc, ok := SuiteTest(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		with, err := Explore(tc, Base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := Explore(tc, Base, Options{NoDedup: true})
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, name+"/nodedup", without)
		if without.DedupCuts != 0 || without.StatesSeen != 0 {
			t.Errorf("%s: NoDedup still cut %d / registered %d states", name, without.DedupCuts, without.StatesSeen)
		}
		if got, want := outcomeKeys(without), outcomeKeys(with); !sliceEq(got, want) {
			t.Errorf("%s: outcome sets differ without dedup: %v vs %v", name, got, want)
		}
		if without.Schedules < with.Schedules {
			t.Errorf("%s: dedup INCREASED schedules: %d with, %d without", name, with.Schedules, without.Schedules)
		}
	}
}

func sliceEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
