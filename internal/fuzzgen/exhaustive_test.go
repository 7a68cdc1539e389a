package fuzzgen

import (
	"context"
	"testing"

	"repro/internal/litmus"
)

// TestEnumeratedDifferential feeds 50 enumerated programs of up to five
// ops through the tri-engine differential checker: the fast-forward,
// serial, and block-parallel engines must produce byte-identical
// canonical documents on every one, and the oracle must stay silent
// (enumerated programs are annotated by construction).
func TestEnumeratedDifferential(t *testing.T) {
	k := 5
	if testing.Short() {
		k = 4
	}
	tests := litmus.Enumerate(litmus.EnumOptions{MaxOps: k, MaxThreads: 2, DMA: true, Locks: 1, Barriers: true})
	if len(tests) < 50 {
		t.Fatalf("enumeration too small to sample: %d programs", len(tests))
	}
	stride := len(tests) / 50
	checked := 0
	for i := 0; i < len(tests) && checked < 50; i += stride {
		tc := tests[i]
		res := Check(tc, litmus.Base)
		if res.Err != nil {
			t.Fatalf("%s: %v", tc.Name, res.Err)
		}
		if res.Diverged != "" {
			t.Errorf("%s: engines diverged: %s", tc.Name, res.Diverged)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%s: annotated enumerated program violated: %+v", tc.Name, res.Violations[0])
		}
		checked++
	}
	if checked != 50 {
		t.Fatalf("sampled %d programs, want 50", checked)
	}
}

// TestEnumeratedMutantsJudged is the mutant half of the enumeration
// gate: every under-annotated mutant of every enumerated program must be
// either detected (some schedule violates, attributed to the weakened
// site) or proven masked by exhaustive exploration — never silently
// missed, and never left unjudged by a non-exhaustive exploration.
func TestEnumeratedMutantsJudged(t *testing.T) {
	k := 4
	if testing.Short() {
		k = 3
	}
	tests := litmus.Enumerate(litmus.EnumOptions{MaxOps: k, MaxThreads: 3, DMA: true, Packed: true, Locks: 1, Barriers: true})
	var judged, detected, masked int
	for _, tc := range tests {
		p := Program{Test: tc}
		for _, m := range EnumeratedMutants(tc) {
			v := JudgeExhaustive(p, m, litmus.Base, litmus.Options{})
			judged++
			switch {
			case v.Err != nil:
				t.Fatalf("%s: judgment failed: %v", m.Test.Name, v.Err)
			case v.Detected:
				detected++
				if v.BadAttribution != "" {
					t.Errorf("%s: detected but misattributed: %s", m.Test.Name, v.BadAttribution)
				}
			case v.MaskReason == MaskProvenExhaustive:
				masked++
			default:
				t.Errorf("%s: silent miss: neither detected nor proven masked (%+v)", m.Test.Name, v)
			}
		}
	}
	if judged == 0 || masked == 0 {
		t.Errorf("degenerate judgment split: %d judged, %d masked", judged, masked)
	}
	// Up to three ops no mutant has both a producer and a consumer around
	// the weakened annotation, so everything is provably masked; from k=4
	// on the MP shapes make real detections mandatory.
	if k >= 4 && detected == 0 {
		t.Error("no mutant detected at k>=4: the judge lost its teeth")
	}
	t.Logf("k=%d: %d mutants judged: %d detected, %d proven masked", k, judged, detected, masked)

	// At every k, the classic MP shape (Store x; NotifyFlag || AwaitFlag;
	// Load x) must expose its weakened notify as a missing writeback.
	var mp litmus.Test
	for _, tc := range litmus.Enumerate(litmus.EnumOptions{MaxOps: 4, MaxThreads: 2, Vars: 1, Flags: 1}) {
		if tc.Name == "enum[s0.n0|a0.l0]" {
			mp = tc
		}
	}
	if mp.Name == "" {
		t.Fatal("enumeration did not generate the MP shape")
	}
	found := false
	for _, m := range EnumeratedMutants(mp) {
		if m.Site.Class != "weaken-notify" {
			continue
		}
		found = true
		v := JudgeExhaustive(Program{Test: mp}, m, litmus.Base, litmus.Options{})
		if v.Err != nil || !v.Detected || v.BadAttribution != "" {
			t.Errorf("%s: want a detected, attributed violation, got %+v", m.Test.Name, v)
		}
	}
	if !found {
		t.Error("the MP shape has no weaken-notify mutant")
	}
}

// TestEnumeratedMutantsMatchSweepCount: the mutants fuzzgen builds from
// an enumeration and the count the sweep documents report come from one
// weakening table (litmus.RawForm), so over the k=3 enumeration they
// agree, and every mutant is a valid program.
func TestEnumeratedMutantsMatchSweepCount(t *testing.T) {
	tests := litmus.Enumerate(litmus.DefaultEnumOptions(3))
	st, err := litmus.Sweep(context.Background(), tests, litmus.Base, litmus.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tc := range tests {
		for _, m := range EnumeratedMutants(tc) {
			n++
			if err := m.Test.Validate(); err != nil {
				t.Fatalf("invalid mutant: %v", err)
			}
		}
	}
	if st.Programs != 1009 || n != st.Mutants {
		t.Errorf("%d programs: %d enumerated mutants, sweep counts %d", st.Programs, n, st.Mutants)
	}
}

// TestJudgeExhaustiveAgreesWithJudge cross-checks the two judges on
// fuzzer-generated programs: the single-schedule Judge can only observe
// a subset of what exhaustive exploration covers, so Judge-detected
// implies exhaustive-detected, and a statically proven mask (a proof
// about all schedules) implies the exhaustive explorer finds no
// violating schedule either.
func TestJudgeExhaustiveAgreesWithJudge(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 6
	}
	// Fuzzer programs with a weakened lock can have schedule spaces beyond
	// any practical cap; those report a capped-exploration error and are
	// skipped — JudgeExhaustive refusing to judge is the correct outcome,
	// the cross-check only applies where exploration finished.
	opts := litmus.Options{MaxSchedules: 30000}
	skipped, checked := 0, 0
	for seed := uint64(1); seed <= uint64(n); seed++ {
		p := Gen(seed)
		for _, m := range Mutants(p, 2) {
			jv := Judge(p, m, litmus.Base)
			if jv.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, m.Test.Name, jv.Err)
			}
			ev := JudgeExhaustive(p, m, litmus.Base, opts)
			if ev.Err != nil {
				skipped++
				continue
			}
			checked++
			if jv.Detected && !ev.Detected {
				t.Errorf("seed %d %s: Judge detected on one schedule but exhaustive exploration found none",
					seed, m.Test.Name)
			}
			if !jv.Detected && jv.MaskReason != "" && jv.MaskReason != MaskBenignSchedule && ev.Detected {
				t.Errorf("seed %d %s: statically proven masked (%s) but exhaustive exploration violated",
					seed, m.Test.Name, jv.MaskReason)
			}
		}
	}
	if checked == 0 {
		t.Error("every mutant's exploration capped out; nothing cross-checked")
	}
	t.Logf("%d mutants cross-checked, %d capped and skipped", checked, skipped)
}
