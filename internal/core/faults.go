package core

import (
	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/mem"
)

// This file threads deterministic fault injection (internal/faultinject)
// through the hierarchy. Every WB-family instruction consults the plan's
// WB cursor exactly once (the public WB/WBAll entry points and the
// level-adaptive WBCons/WBConsAll each consult before dispatching to the
// internal implementations), so the oracle can replay the decisions from
// its own cursor over the identical instruction stream. INV-family
// instructions consult the INV cursor the same way. The meb-cap and
// ieb-lie faults hook the Store and Load paths directly (hierarchy.go).
//
// A dropped writeback is a pure no-op. A delayed writeback parks the
// affected dirty words in h.delayed and clears their dirty bits — the
// data is withheld from the shared levels for the rest of the run and
// only reaches backing memory when Drain executes, modeling a write
// buffer that drains after the synchronization it was supposed to
// precede. Parked words are applied before the cache drains, so any line
// still cached (or re-written later) wins over the delayed copy.

// parked is one delayed line's withheld dirty words.
type parked struct {
	line  mem.Addr
	words [mem.WordsPerLine]mem.Word
	mask  mem.LineMask
}

// SetFaults attaches a fault-injection state (nil detaches).
func (h *Hierarchy) SetFaults(fi *faultinject.State) { h.fi = fi }

// Faults returns the attached fault-injection state, or nil.
func (h *Hierarchy) Faults() *faultinject.State { return h.fi }

// wbFaultRange consults the WB cursor for a range writeback. When the
// instruction is sabotaged it performs the fault's effect and returns
// (latency, true); the caller must then skip the real writeback.
func (h *Hierarchy) wbFaultRange(core int, r mem.Range) (int64, bool) {
	if h.fi == nil {
		return 0, false
	}
	switch h.fi.NextWB() {
	case faultinject.WBDrop:
		h.ctr(core).Inc("fault.wb.dropped", 1)
		return 1, true
	case faultinject.WBDelay:
		h.ctr(core).Inc("fault.wb.delayed", 1)
		r.Lines(func(line mem.Addr, _ mem.LineMask) {
			if l := h.L1[core].Peek(line); l != nil && l.IsDirty() {
				h.park(l)
			}
		})
		return 1, true
	}
	return 0, false
}

// wbFaultAll consults the WB cursor for a whole-cache writeback.
func (h *Hierarchy) wbFaultAll(core int) (int64, bool) {
	if h.fi == nil {
		return 0, false
	}
	switch h.fi.NextWB() {
	case faultinject.WBDrop:
		h.ctr(core).Inc("fault.wb.dropped", 1)
		return 1, true
	case faultinject.WBDelay:
		h.ctr(core).Inc("fault.wb.delayed", 1)
		h.L1[core].ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				h.park(l)
			}
		})
		return 1, true
	}
	return 0, false
}

// invFault consults the INV cursor; true means the invalidation is
// skipped entirely (for a lazy INV ALL, the IEB is not armed either).
func (h *Hierarchy) invFault(core int) bool {
	if h.fi == nil || !h.fi.NextINV() {
		return false
	}
	h.ctr(core).Inc("fault.inv.skipped", 1)
	return true
}

// park withholds a line's dirty words until Drain and cleans the line.
func (h *Hierarchy) park(l *cache.Line) {
	h.delayed = append(h.delayed, parked{line: l.Tag, words: l.Words, mask: l.Dirty})
	l.Dirty = 0
}

// applyDelayed writes every parked word to backing memory; Drain calls it
// before draining the caches.
func (h *Hierarchy) applyDelayed() {
	for i := range h.delayed {
		d := &h.delayed[i]
		h.Backing.WriteLine(d.line, &d.words, d.mask)
	}
	h.delayed = h.delayed[:0]
}
