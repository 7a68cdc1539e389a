package litmus

import (
	"reflect"
	"strings"
	"testing"
)

// enumGateOptions is the enumeration surface the gate sweeps: the full
// alphabet (loads, stores, WB, INV, annotated flags, critical sections,
// barriers, DMA) with packed clones.
func enumGateOptions(k int) EnumOptions {
	return EnumOptions{MaxOps: k, MaxThreads: 3, DMA: true, Packed: true, Locks: 1, Barriers: true}
}

// goldenEnum pins the sweep size per op budget k: canonical programs
// (packed clones included) and annotation mutants, and the DPOR
// exploration totals of the whole sweep under Base. Drift in the sizes
// means the alphabet, the validity filters, or the canonicalization
// changed; drift in the totals with the sizes intact means the explorer
// changed what it visits — a state-fingerprint collision merges states
// and lowers StatesSeen, a wrong sleep/backtrack set moves Runs.
var goldenEnum = []struct {
	K        int
	Programs int
	Mutants  int
	// Exploration totals under Base.
	Runs, Schedules, DedupCuts, StatesSeen int64
}{
	{2, 44, 9, 85, 74, 9, 142},
	{3, 1009, 367, 3153, 2014, 1096, 6040},
	{4, 17851, 10416, 92758, 42305, 48962, 181072},
}

// TestEnumerateGolden pins the enumeration's size and basic hygiene:
// every generated test and every mutant validates, names are unique,
// and the counts match the golden table.
func TestEnumerateGolden(t *testing.T) {
	for _, g := range goldenEnum {
		if testing.Short() && g.K > 3 {
			continue
		}
		tests := Enumerate(enumGateOptions(g.K))
		if len(tests) != g.Programs {
			t.Errorf("k=%d: %d programs, golden %d", g.K, len(tests), g.Programs)
		}
		names := map[string]bool{}
		mutants := 0
		for _, tc := range tests {
			if err := tc.Validate(); err != nil {
				t.Fatalf("k=%d: generated invalid test: %v", g.K, err)
			}
			if names[tc.Name] {
				t.Errorf("k=%d: duplicate name %s", g.K, tc.Name)
			}
			names[tc.Name] = true
			if tc.Allowed != nil {
				t.Errorf("k=%d: %s: enumerated test must leave the outcome set open", g.K, tc.Name)
			}
			for _, m := range Mutants(tc) {
				mutants++
				if err := m.Validate(); err != nil {
					t.Fatalf("k=%d: invalid mutant: %v", g.K, err)
				}
			}
		}
		if mutants != g.Mutants {
			t.Errorf("k=%d: %d mutants, golden %d", g.K, mutants, g.Mutants)
		}
	}
}

// TestEnumerateDeterministic: two runs produce identical test lists.
func TestEnumerateDeterministic(t *testing.T) {
	a := Enumerate(enumGateOptions(3))
	b := Enumerate(enumGateOptions(3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enumeration is not deterministic")
	}
}

// TestEnumerateCanonical: the canonicalization is genuinely symmetric —
// no two generated programs are thread-permutations or variable/flag
// renamings of each other (their canonical keys would collide and dedup
// would have dropped one).
func TestEnumerateCanonical(t *testing.T) {
	tests := Enumerate(enumGateOptions(3))
	for _, tc := range tests {
		if tc.Packed {
			continue
		}
		// Threads of a canonical program arrive sorted by their rendering
		// in at least one permutation; a cheap spot-check: the name embeds
		// the canonical key, so names are canonical renderings.
		if !strings.HasPrefix(tc.Name, "enum[") {
			t.Fatalf("unexpected name %q", tc.Name)
		}
	}
}

// TestEnumerationSweep is the exhaustiveness gate of the enumeration
// tentpole: every annotated-by-construction program up to k ops must
// explore to completion (no errors, truncation, or caps) with zero
// violations under DPOR, and the exploration totals must equal
// goldenEnum's. Short mode stops at k=3; the full run sweeps k=4 (the CI
// litmus-enumerate job always runs the full sweep).
func TestEnumerationSweep(t *testing.T) {
	maxK := 4
	if testing.Short() {
		maxK = 3
	}
	st := Sweep(Enumerate(enumGateOptions(maxK)), Base, Options{})
	if len(st.Violating) > 0 {
		t.Errorf("%d annotated programs violated, first: %s", len(st.Violating), st.Violating[0])
	}
	if len(st.Failed) > 0 {
		t.Errorf("%d explorations not exhaustive, first: %s", len(st.Failed), st.Failed[0])
	}
	for _, g := range goldenEnum {
		if g.K != maxK {
			continue
		}
		if st.Programs != g.Programs {
			t.Errorf("k=%d: swept %d programs, golden %d", maxK, st.Programs, g.Programs)
		}
		got := [4]int64{st.Runs, st.Schedules, st.DedupCuts, st.StatesSeen}
		if want := [4]int64{g.Runs, g.Schedules, g.DedupCuts, g.StatesSeen}; got != want {
			t.Errorf("k=%d: runs/schedules/dedup_cuts/states_seen = %v, golden %v", maxK, got, want)
		}
	}
	if st.DedupCuts == 0 || st.Schedules == 0 {
		t.Errorf("sweep looks degenerate: schedules=%d dedup_cuts=%d", st.Schedules, st.DedupCuts)
	}
	t.Logf("k=%d: %d programs, %d mutants, runs=%d schedules=%d dedup_cuts=%d states=%d",
		maxK, st.Programs, st.Mutants, st.Runs, st.Schedules, st.DedupCuts, st.StatesSeen)
}

// TestEnumerateMutantsChangeBehavior spot-checks that stripping an
// annotation is observable: for the classic MP shape the nowb mutant
// must expose a missing-wb violation under exhaustive exploration.
func TestEnumerateMutantsChangeBehavior(t *testing.T) {
	// Store x; NotifyFlag || AwaitFlag; Load x — the enumeration's own
	// rendering of flag-annotated.
	var mp Test
	for _, tc := range Enumerate(EnumOptions{MaxOps: 4, MaxThreads: 2, Vars: 1, Flags: 1}) {
		if tc.Name == "enum[s0.n0|a0.l0]" {
			mp = tc
			break
		}
	}
	if mp.Name == "" {
		t.Fatal("enumeration did not generate the MP shape")
	}
	found := false
	for _, m := range Mutants(mp) {
		rep, err := Explore(m, Base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ViolationSchedules > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no MP mutant exposed a violation")
	}
}
