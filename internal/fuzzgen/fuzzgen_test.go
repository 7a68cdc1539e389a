package fuzzgen

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/litmus"
)

// TestGenDeterministic pins the generator's core contract: a seed is a
// complete address — the same seed yields the same program and the same
// mutation sites, bit for bit.
func TestGenDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Gen(seed), Gen(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGenValid checks every generated program is well-formed and lands
// inside the harness's machine bounds.
func TestGenValid(t *testing.T) {
	sites, packed := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		p := Gen(seed)
		if err := p.Test.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := len(p.Test.Threads); n < minThreads || n > maxThreads {
			t.Fatalf("seed %d: %d threads", seed, n)
		}
		for _, s := range p.Sites {
			in := p.Test.Threads[s.Thread][s.Index]
			switch s.Class {
			case "drop-wb":
				if in.Kind != litmus.IWB {
					t.Fatalf("seed %d: drop-wb site points at %v", seed, in.Kind)
				}
			case "weaken-notify":
				if in.Kind != litmus.INotifyFlag {
					t.Fatalf("seed %d: weaken-notify site points at %v", seed, in.Kind)
				}
			}
		}
		sites += len(p.Sites)
		if p.Test.Packed {
			packed++
		}
	}
	if sites == 0 {
		t.Fatal("no mutation sites in 200 programs")
	}
	if packed == 0 {
		t.Fatal("no packed programs in 200 seeds")
	}
}

// TestMutantsDeterministic pins mutant derivation: same program, same
// mutants, and each mutant differs from its parent at exactly the site.
func TestMutantsDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		p := Gen(seed)
		a, b := Mutants(p, 2), Mutants(p, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two derivations differ", seed)
		}
		for _, m := range a {
			if err := m.Test.Validate(); err != nil {
				t.Fatalf("seed %d mutant %s: %v", seed, m.Test.Name, err)
			}
			if reflect.DeepEqual(m.Test.Threads, p.Test.Threads) {
				t.Fatalf("seed %d mutant %s: identical to parent", seed, m.Test.Name)
			}
		}
	}
}

// TestMutantsHugeMax: a max past the site count mutates every site once
// and sizes nothing by max itself.
func TestMutantsHugeMax(t *testing.T) {
	p := Gen(1)
	if got := Mutants(p, math.MaxInt); len(got) != len(p.Sites) {
		t.Fatalf("Mutants(max=MaxInt) = %d mutants, want one per site (%d)", len(got), len(p.Sites))
	}
}

// TestAnnotatedProgramsClean is the harness's half of the tentpole
// invariant in isolation: correctly annotated programs raise no oracle
// violation and run identically on all three engines, under every
// incoherent configuration.
func TestAnnotatedProgramsClean(t *testing.T) {
	hi := uint64(25)
	if testing.Short() {
		hi = 8
	}
	for seed := uint64(1); seed <= hi; seed++ {
		p := Gen(seed)
		for _, cfg := range []litmus.Config{litmus.Base, litmus.BM, litmus.BI, litmus.BMI} {
			res := Check(p.Test, cfg)
			if res.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfg.Name, res.Err)
			}
			if len(res.Violations) > 0 {
				t.Fatalf("seed %d %s: annotated program violated: %v", seed, cfg.Name, res.Violations[0])
			}
			if res.Diverged != "" {
				t.Fatalf("seed %d %s: engines diverged:\n%s", seed, cfg.Name, res.Diverged)
			}
		}
	}
}
