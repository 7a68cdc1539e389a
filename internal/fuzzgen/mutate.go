package fuzzgen

import (
	"fmt"

	"repro/internal/litmus"
	"repro/internal/mem"
)

// Mutant is one under-annotated variant of a generated program: exactly
// one site weakened.
type Mutant struct {
	// Seed is the parent program's seed.
	Seed uint64
	// Site is the weakened site (coordinates in the parent's threads).
	Site Site
	// Test is the mutated program.
	Test litmus.Test
}

// mutate applies the site's weakening to a deep copy of t: drop-wb and
// drop-inv delete the raw IWB / IINV, and every other class (weaken-*)
// replaces the annotated sync op by its raw form (litmus.RawForm).
//
// Every weakening preserves the raw synchronization op, so the mutant
// cannot deadlock and the oracle's vector clocks still order the racing
// accesses — which is exactly what lets it check them and attribute the
// stale value to the dropped WB/INV.
func mutate(t litmus.Test, s Site) litmus.Test {
	out := t
	out.Threads = make([][]litmus.Instr, len(t.Threads))
	for i, th := range t.Threads {
		out.Threads[i] = append([]litmus.Instr(nil), th...)
	}
	th := out.Threads[s.Thread]
	switch s.Class {
	case "drop-wb", "drop-inv":
		out.Threads[s.Thread] = append(th[:s.Index:s.Index], th[s.Index+1:]...)
	default:
		raw, ok := litmus.RawForm(th[s.Index])
		if !ok {
			panic("fuzzgen: " + s.Class + " site is not an annotated sync op")
		}
		th[s.Index] = raw
	}
	out.Name = fmt.Sprintf("%s-%s-t%d.%d", t.Name, s.Class, s.Thread, s.Index)
	return out
}

// Mutants derives up to max single-site mutants of p, deterministically:
// sites are taken in an evenly spread order over the site list, seeded
// by the program itself, so the same program always yields the same
// mutants.
func Mutants(p Program, max int) []Mutant {
	if max <= 0 || len(p.Sites) == 0 {
		return nil
	}
	idx := make([]int, 0, min(max, len(p.Sites)))
	if len(p.Sites) <= max {
		for i := range p.Sites {
			idx = append(idx, i)
		}
	} else {
		r := newRNG(p.Seed ^ 0xa5a5a5a5a5a5a5a5)
		start := r.intn(len(p.Sites))
		stride := len(p.Sites)/max + 1
		seen := make(map[int]bool)
		for i := start; len(idx) < max; i += stride {
			j := i % len(p.Sites)
			for seen[j] {
				j = (j + 1) % len(p.Sites)
			}
			seen[j] = true
			idx = append(idx, j)
		}
	}
	out := make([]Mutant, 0, len(idx))
	for _, i := range idx {
		s := p.Sites[i]
		out = append(out, Mutant{Seed: p.Seed, Site: s, Test: mutate(p.Test, s)})
	}
	return out
}

// wbCoverage returns the variables whose publication the site's mutation
// drops: the thread's still-unpublished stores at the site (whole-cache
// forms take all of them, the per-line IWB its own line's share). The
// walk replays the thread's earlier publications, so a store already
// written back — the DMA motif's pinned IWB, an earlier notify — is not
// charged to the site. IPublish is treated per-line (its weakest
// lowering), which only enlarges the set: a sound superset under every
// configuration.
func wbCoverage(t litmus.Test, s Site) map[litmus.VarID]bool {
	th := t.Threads[s.Thread]
	pending := make(map[litmus.VarID]bool)
	clearLine := func(v litmus.VarID) {
		delete(pending, v)
		for u := range covLine(t, v) {
			delete(pending, u)
		}
	}
	for i := 0; i < s.Index; i++ {
		switch in := th[i]; in.Kind {
		case litmus.IStore:
			pending[in.Var] = true
		case litmus.IWB, litmus.IPublish:
			clearLine(in.Var)
		case litmus.INotifyFlag, litmus.ICSExit, litmus.IBarrierSync:
			pending = make(map[litmus.VarID]bool)
		}
	}
	if in := th[s.Index]; in.Kind == litmus.IWB {
		cov := make(map[litmus.VarID]bool)
		if pending[in.Var] {
			cov[in.Var] = true
		}
		for u := range covLine(t, in.Var) {
			if pending[u] {
				cov[u] = true
			}
		}
		return cov
	}
	return pending
}

// invCoverage returns the variables a dropped invalidation could leave
// stale in the reader's caches: everything the thread loads after the
// site (whole-cache forms) or the site's own line (per-line forms).
func invCoverage(t litmus.Test, s Site) map[litmus.VarID]bool {
	cov := make(map[litmus.VarID]bool)
	in := t.Threads[s.Thread][s.Index]
	if in.Kind == litmus.IINV {
		cov[in.Var] = true
		addLineMates(t, in.Var, cov)
		return cov
	}
	for i := s.Index + 1; i < len(t.Threads[s.Thread]); i++ {
		if post := t.Threads[s.Thread][i]; post.Kind == litmus.ILoad {
			cov[post.Var] = true
		}
	}
	return cov
}

// addLineMates extends a coverage set with the variables sharing v's
// cache line: WB and INV act on whole lines, so under the packed layout
// a per-line operation covers the neighbors too.
func addLineMates(t litmus.Test, v litmus.VarID, cov map[litmus.VarID]bool) {
	if !t.Packed {
		return
	}
	line := mem.LineAddr(t.AddrOf(v))
	for u := 0; u < t.Vars; u++ {
		if mem.LineAddr(t.AddrOf(litmus.VarID(u))) == line {
			cov[litmus.VarID(u)] = true
		}
	}
}
