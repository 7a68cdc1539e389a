package core

import "repro/internal/mem"

// Probe is a side-effect-free snapshot of where one word lives in the
// hierarchy as seen from a given core: its private L1, its block's L2,
// the global L3 (when present), and backing memory. Litmus checkers and
// debugging tools use it to explain an observed value — e.g. a stale
// read shows up as L1Present with L1Val differing from MemVal.
type Probe struct {
	L1Present bool
	L1Dirty   bool // the probed word's dirty bit, not the whole line's
	L1Val     mem.Word

	L2Present bool
	L2Dirty   bool
	L2Val     mem.Word

	L3Present bool
	L3Dirty   bool
	L3Val     mem.Word

	MemVal mem.Word
}

// Evictions returns the total number of line evictions — clean and
// dirty — across every cache in the hierarchy. The litmus explorer
// counts runs with any eviction in Report.EvictionRuns.
func (h *Hierarchy) Evictions() int64 {
	var n int64
	for _, c := range h.l1 {
		n += c.Evictions
	}
	for _, c := range h.l2 {
		n += c.Evictions
	}
	if h.l3 != nil {
		n += h.l3.Evictions
	}
	return n
}

// ProbeWord reports where the word at a currently lives relative to
// core. It disturbs nothing: no LRU update, no hit/miss counters, no
// fills — safe to call between scheduling steps of a live run.
func (h *Hierarchy) ProbeWord(core int, a mem.Addr) Probe {
	wi := mem.WordIndex(a)
	var p Probe
	if l := h.l1[core].Peek(a); l != nil {
		p.L1Present = true
		p.L1Dirty = l.Dirty.Has(wi)
		p.L1Val = l.Words[wi]
	}
	if l := h.l2[h.m.BlockOf(core)].Peek(a); l != nil {
		p.L2Present = true
		p.L2Dirty = l.Dirty.Has(wi)
		p.L2Val = l.Words[wi]
	}
	if h.l3 != nil {
		if l := h.l3.Peek(a); l != nil {
			p.L3Present = true
			p.L3Dirty = l.Dirty.Has(wi)
			p.L3Val = l.Words[wi]
		}
	}
	p.MemVal = h.backing.ReadWord(a)
	return p
}
