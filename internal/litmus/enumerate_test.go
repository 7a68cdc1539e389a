package litmus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// every generated test validates, names are unique, and the counts
// match the golden table. internal/fuzzgen validates the mutants it
// builds from the same sites.
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
			mutants += mutantCount(tc)
		}
		if mutants != g.Mutants {
			t.Errorf("k=%d: %d mutants, golden %d", g.K, mutants, g.Mutants)
		}
	}
}

// enumDigest hashes every generated test, in order: its name, doc,
// sizes, packed flag, instructions, final variables, outcome-set
// openness and expectation. Two enumerations with equal digests emit
// the same programs in the same order under the same names.
func enumDigest(tests []Test) string {
	h := sha256.New()
	for _, t := range tests {
		fmt.Fprintf(h, "%s\x00%s\x00%d %d %t %v %v %t %d\n",
			t.Name, t.Doc, t.Vars, t.Regs, t.Packed, t.Threads, t.Final, t.Allowed == nil, t.Expect)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEnumeratePinned pins Enumerate(DefaultEnumOptions(k)) byte for
// byte: the digests were taken from the string-keyed enumerator the
// byte-coded canonical form replaced, so any change in which programs
// are generated, their order or their names fails here.
func TestEnumeratePinned(t *testing.T) {
	for _, c := range []struct {
		k      int
		digest string
	}{
		{2, "abb9d3fa63aec5d6fa577f2cd7005ab264e1dd5d12df2b352166aac7bef6ef61"},
		{3, "fcb28869d90f485daa86d17f96e81b96032528ab91dda3fb1af64bee351ae3e3"},
		{4, "21077eca43156034c7ea9da68ee3c80b9ce7c576d6a69c1c25f63ef51c324329"},
	} {
		if testing.Short() && c.k > 3 {
			continue
		}
		if got := enumDigest(Enumerate(DefaultEnumOptions(c.k))); got != c.digest {
			t.Errorf("k=%d: enumeration digest %s, pinned %s", c.k, got, c.digest)
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
		// A cheap spot-check that names are the enumeration's renderings;
		// TestEnumeratePinned pins the exact programs and names.
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
	st, err := Sweep(context.Background(), Enumerate(enumGateOptions(maxK)), Base, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// TestDocumentsIndependentOfWorkerCount: the suite and enumeration
// documents fan their explorations out across workers and assemble them
// in program order, so one worker and four must give equal documents.
func TestDocumentsIndependentOfWorkerCount(t *testing.T) {
	ctx := context.Background()
	var suite, enum [2]*Document
	for i, workers := range []int{1, 4} {
		var err error
		if suite[i], err = SuiteDocument(ctx, Suite[:6], Configs, Options{}, workers); err != nil {
			t.Fatal(err)
		}
		if enum[i], err = EnumerateDocument(ctx, Configs[:2], 3, Options{}, workers); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(suite[0], suite[1]) {
		t.Error("suite document differs between 1 and 4 workers")
	}
	if !reflect.DeepEqual(enum[0], enum[1]) {
		t.Error("enumeration document differs between 1 and 4 workers")
	}
	if enum[0].Failed() || len(enum[0].Sweeps) != 2 || enum[0].Sweeps[0].Stats.Programs != 1009 {
		t.Errorf("k=3 enumeration document looks wrong: %+v", enum[0].Sweeps)
	}
}

// TestEnumerateMutantsChangeBehavior spot-checks that stripping an
// annotation is observable: for the classic MP shape, weakening one sync
// site through RawForm must let exhaustive exploration expose a
// violation.
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
	sites := 0
	for ti, seq := range mp.Threads {
		for ii, in := range seq {
			raw, ok := RawForm(in)
			if !ok {
				continue
			}
			sites++
			m := mp
			m.Threads = make([][]Instr, len(mp.Threads))
			for j, s := range mp.Threads {
				m.Threads[j] = append([]Instr(nil), s...)
			}
			m.Threads[ti][ii] = raw
			rep, err := Explore(m, Base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.ViolationSchedules > 0 {
				found = true
			}
		}
	}
	if sites != mutantCount(mp) {
		t.Errorf("weakened %d sites, mutantCount says %d", sites, mutantCount(mp))
	}
	if !found {
		t.Error("no MP mutant exposed a violation")
	}
}
