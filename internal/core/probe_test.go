package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func TestProbeWordTracksLineMovement(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x2000)

	p := h.ProbeWord(0, a)
	if p.L1Present || p.L2Present || p.L3Present || p.MemVal != 0 {
		t.Fatalf("fresh hierarchy probe = %+v, want all-absent zero", p)
	}

	h.Store(0, a, 7)
	p = h.ProbeWord(0, a)
	if !p.L1Present || !p.L1Dirty || p.L1Val != 7 {
		t.Errorf("after store, L1 probe = %+v, want present dirty 7", p)
	}
	if p.MemVal != 0 {
		t.Errorf("store leaked to memory before WB: mem = %d", p.MemVal)
	}
	// The same word from another core's view: nothing private, same memory.
	if q := h.ProbeWord(1, a); q.L1Present {
		t.Errorf("core 1 L1 claims a line only core 0 touched: %+v", q)
	}

	h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	p = h.ProbeWord(0, a)
	if p.L1Dirty {
		t.Errorf("after WB, L1 word still dirty: %+v", p)
	}
	if !p.L2Present || p.L2Val != 7 {
		t.Errorf("after WB, L2 probe = %+v, want present 7", p)
	}

	h.INV(0, mem.WordRange(a, 1), isa.LevelAuto)
	p = h.ProbeWord(0, a)
	if p.L1Present {
		t.Errorf("after INV, line still in L1: %+v", p)
	}
	if !p.L2Present || p.L2Val != 7 {
		t.Errorf("INV from L1 disturbed L2: %+v", p)
	}
}

func TestProbeWordHasNoSideEffects(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x3000)
	h.Store(0, a, 5)
	l1 := h.L1[0]
	hits, misses := l1.Hits, l1.Misses
	for i := 0; i < 10; i++ {
		h.ProbeWord(0, a)
		h.ProbeWord(0, a+0x10000) // absent everywhere
	}
	if l1.Hits != hits || l1.Misses != misses {
		t.Errorf("probe moved hit/miss counters: %d/%d -> %d/%d", hits, misses, l1.Hits, l1.Misses)
	}
	if p := h.ProbeWord(0, a); !p.L1Present || p.L1Val != 5 {
		t.Errorf("probe after probes = %+v, want L1 present 5", p)
	}
}

func TestProbeWordSeesL3(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0x4000)
	h.Store(0, a, 9)
	h.WB(0, mem.WordRange(a, 1), isa.LevelGlobal)
	p := h.ProbeWord(0, a)
	if !p.L3Present || p.L3Val != 9 {
		t.Errorf("after WB to global, L3 probe = %+v, want present 9", p)
	}
}
