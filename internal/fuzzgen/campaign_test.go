package fuzzgen

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/litmus"
)

// encodeReport encodes a report canonically, host wall times (the only
// nondeterministic field) stripped.
func encodeReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignAcceptance is the tentpole gate: a pinned seed range —
// at least 200 programs and 100 mutants in full mode — completes with
// zero annotated-program violations, every mutant detected with
// attribution or attributed to masking analysis, and byte-identical
// serial / fast-forward / block-parallel documents on the entire
// corpus. Any breach fails the campaign with a shrunk repro.
func TestCampaignAcceptance(t *testing.T) {
	hi := uint64(201)
	if testing.Short() {
		hi = 31
	}
	rep, err := Campaign(context.Background(), Options{SeedLo: 1, SeedHi: hi})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatal("campaign failed")
	}
	if rep.Schema != envelope.SchemaV2 || rep.Kind != envelope.KindFuzz {
		t.Fatalf("report envelope = %s/%s", rep.Schema, rep.Kind)
	}
	if want := int(hi - 1); rep.Programs != want {
		t.Fatalf("programs = %d, want %d", rep.Programs, want)
	}
	minMutants := 100
	if testing.Short() {
		minMutants = 15
	}
	if rep.Mutants < minMutants {
		t.Fatalf("mutants = %d, want >= %d", rep.Mutants, minMutants)
	}
	sum := func(m map[string]map[string]int) int {
		n := 0
		for _, byCfg := range m {
			for _, c := range byCfg {
				n += c
			}
		}
		return n
	}
	det, masked := sum(rep.Detected), sum(rep.Masked)
	// Every (mutant, config) judgment lands in exactly one bucket.
	if want := rep.Mutants * 4; det+masked != want {
		t.Fatalf("detected %d + masked %d = %d judgments, want %d", det, masked, det+masked, want)
	}
	if det == 0 {
		t.Fatal("campaign detected no mutants — the detection table is vacuous")
	}
	if masked > 0 && len(rep.MaskReasons) == 0 {
		t.Fatal("masked mutants without mask reasons")
	}
	if len(rep.Runs) != int(hi-1)*4 {
		t.Fatalf("runs = %d, want %d", len(rep.Runs), int(hi-1)*4)
	}
	for _, r := range rep.Runs {
		if r.Error != "" {
			t.Fatalf("%s/%s: %s", r.Workload, r.Config, r.Error)
		}
	}
}

// TestCampaignDeterministicAcrossWorkers is the shrinker-determinism
// gate: the same seed range with a forced failure produces a
// byte-identical report — shrunk repro included — whether the campaign
// runs on 1 worker or 8. (CI runs the suite with -shuffle=on, so test
// order independence rides along.)
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	const lo, hi = 1, 31
	base, err := Campaign(context.Background(), Options{SeedLo: lo, SeedHi: hi})
	if err != nil || base.Failed() {
		t.Fatalf("baseline campaign failed: %v", err)
	}
	if len(base.Detections) == 0 {
		t.Fatal("no detections in the baseline range")
	}
	failSeed := base.Detections[0].Seed

	run := func(workers int) (*Report, []byte) {
		rep, err := Campaign(context.Background(), Options{
			SeedLo: lo, SeedHi: hi, Parallel: workers, FailSeeds: []uint64{failSeed},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Failed() {
			t.Fatalf("workers=%d: campaign with fail-seed %d did not fail", workers, failSeed)
		}
		return rep, encodeReport(t, rep)
	}
	rep1, doc1 := run(1)
	_, doc8 := run(8)
	if !bytes.Equal(doc1, doc8) {
		t.Fatalf("campaign reports differ between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s", doc1, doc8)
	}

	// The forced cells carry the shrunk repro, self-contained.
	found := false
	for _, r := range rep1.Runs {
		if r.ErrorKind == "" {
			continue
		}
		if r.ErrorKind != "fuzz-repro" {
			t.Fatalf("%s/%s: error_kind = %q, want fuzz-repro", r.Workload, r.Config, r.ErrorKind)
		}
		if r.Repro == "" || !strings.Contains(r.Repro, "Threads:") {
			t.Fatalf("%s/%s: repro is not a litmus-DSL test:\n%s", r.Workload, r.Config, r.Repro)
		}
		var sig string
		var ops int
		if _, err := fmt.Sscanf(r.Repro[strings.Index(r.Repro, "signature"):], "signature %s %d ops", &sig, &ops); err != nil {
			t.Fatalf("%s/%s: cannot parse op count from repro header: %v\n%s", r.Workload, r.Config, err, r.Repro)
		}
		if ops > 6 {
			t.Errorf("%s/%s: shrunk repro has %d ops, want <= 6:\n%s", r.Workload, r.Config, ops, r.Repro)
		}
		found = true
	}
	if !found {
		t.Fatal("no fuzz-repro cell in the failed campaign")
	}
}

// TestShrinkDeterministic pins the shrinker in isolation: shrinking the
// same failing mutant twice yields byte-identical repro text.
func TestShrinkDeterministic(t *testing.T) {
	base, err := Campaign(context.Background(), Options{SeedLo: 1, SeedHi: 31})
	if err != nil || base.Failed() {
		t.Fatalf("baseline campaign failed: %v", err)
	}
	if len(base.Detections) == 0 {
		t.Fatal("no detections to shrink")
	}
	d := base.Detections[0]
	p := Gen(d.Seed)
	var mut *Mutant
	for _, m := range Mutants(p, 2) {
		if m.Test.Name == d.Mutant {
			m := m
			mut = &m
		}
	}
	if mut == nil {
		t.Fatalf("mutant %s not re-derivable from seed %d", d.Mutant, d.Seed)
	}
	cfg, ok := litmus.ConfigByName(d.Config)
	if !ok {
		t.Fatalf("unknown config %s", d.Config)
	}
	sig := Signature{Kind: "violation", Class: d.Violation}
	shrunk := Shrink(mut.Test, cfg, sig)
	a := ReproText(shrunk, cfg, sig)
	b := ReproText(Shrink(mut.Test, cfg, sig), cfg, sig)
	if a != b {
		t.Fatalf("two shrinks of the same mutant differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if got := signatureOf(Check(shrunk, cfg)); got != sig {
		t.Fatalf("shrunk repro signature = %v, want %v", got, sig)
	}
}
