package core

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// This file implements the WB and INV instruction family (Sections III-B,
// IV-B and V-B).
//
// Cost model (DESIGN.md §3): a WB or INV pays one ScanPerFrame cycle per
// tag it probes (per MEB entry on the MEB path, per frame on a full
// traversal, per line on a range op), one WBOccupancy cycle per line whose
// dirty words it ejects (writeback bursts are pipelined), and — for WBs
// that moved data — one drain round trip to the destination cache, since
// Section III-C requires WB to complete before a subsequent synchronization
// posts it. Whole-cache L2 traversals are parallel across the block's banks.
//
// On the single-block machine there is no L3, so LevelGlobal degrades to
// LevelAuto (the L2 is already the deepest shared cache).

// effLevel clamps the requested level to the machine's depth.
func (h *Hierarchy) effLevel(lvl isa.Level) isa.Level {
	if h.L3 == nil {
		return isa.LevelAuto
	}
	return lvl
}

// WB writes back the dirty words of every line overlapping r (Section
// III-B): to the block's L2 for LevelAuto, through to the L3 for
// LevelGlobal. Lines are left clean valid. It returns the exposed latency.
func (h *Hierarchy) WB(core int, r mem.Range, lvl isa.Level) int64 {
	if lat, sabotaged := h.wbFaultRange(core, r); sabotaged {
		return lat
	}
	return h.wb(core, r, lvl)
}

func (h *Hierarchy) wb(core int, r mem.Range, lvl isa.Level) int64 {
	lvl = h.effLevel(lvl)
	p := h.M.Params
	var lat int64
	written := 0
	var lastLine mem.Addr
	r.Lines(func(line mem.Addr, _ mem.LineMask) {
		lat += p.ScanPerFrame
		if h.wbLine(core, line, lvl) {
			written++
			lastLine = line
		}
		h.countLineOp(core, &wbLines, lvl, 1)
	})
	lat += int64(written) * p.WBOccupancy
	if written > 0 {
		lat += h.wbDrainRT(core, lastLine, lvl)
	}
	return lat
}

// wbLine writes back one line's dirty words (L1's and, at LevelGlobal,
// also the block L2's) and reports whether any data moved. WB has no
// effect on lines with no dirty valid data.
func (h *Hierarchy) wbLine(core int, line mem.Addr, lvl isa.Level) bool {
	wrote := false
	if l := h.L1[core].Peek(line); l != nil && l.IsDirty() {
		h.wbDirtyWords(core, l, lvl)
		wrote = true
	}
	if lvl == isa.LevelGlobal {
		b := h.M.BlockOf(core)
		if l2l := h.L2[b].Peek(line); l2l != nil && l2l.IsDirty() {
			h.pushL2WordsToL3(core, l2l)
			wrote = true
		}
	}
	return wrote
}

// wbDirtyWords ejects an L1 line's dirty words toward the requested level
// and leaves the line clean valid.
func (h *Hierarchy) wbDirtyWords(core int, l *cache.Line, lvl isa.Level) {
	b := h.M.BlockOf(core)
	h.ctr(core).Inc("wb.words", int64(l.Dirty.Count()))
	h.ctr(core).Inc("wb.dirtylines", 1)
	if h.effLevel(lvl) == isa.LevelGlobal {
		h.pushWordsGlobal(b, l.Tag, &l.Words, l.Dirty)
	} else {
		h.mergeBelowL1(b, l.Tag, &l.Words, l.Dirty)
	}
	l.Dirty = 0
}

// pushWordsGlobal writes masked words to both the block's L2 and the L3
// (Section V-B: "the dirty words are written back to both L2 and L3").
// The L2 copy is updated and left clean for those words, since the L3 now
// holds them too.
func (h *Hierarchy) pushWordsGlobal(b int, line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	flits := noc.DataFlits(mask.Count() * mem.WordBytes)
	h.M.Mesh.Account(stats.Writeback, flits) // L1 -> L2 leg
	if l2l := h.L2[b].Peek(line); l2l != nil {
		l2l.Merge(words, mask)
		l2l.Dirty &^= mask
	}
	h.M.Mesh.Account(stats.Writeback, flits) // L2 -> L3 leg
	h.mergeBelowL2NoTraffic(line, words, mask)
}

// pushL2WordsToL3 ejects a block-L2 line's dirty words to the L3 (or
// memory when the L3 evicted the line) and leaves the L2 line clean.
func (h *Hierarchy) pushL2WordsToL3(core int, l2l *cache.Line) {
	h.ctr(core).Inc("wb.words", int64(l2l.Dirty.Count()))
	h.ctr(core).Inc("wb.dirtylines", 1)
	h.M.Mesh.Account(stats.Writeback, noc.DataFlits(l2l.Dirty.Count()*mem.WordBytes))
	h.mergeBelowL2NoTraffic(l2l.Tag, &l2l.Words, l2l.Dirty)
	l2l.Dirty = 0
}

// wbDrainRT is the final drain round trip of a writeback burst.
func (h *Hierarchy) wbDrainRT(core int, line mem.Addr, lvl isa.Level) int64 {
	p := h.M.Params
	b := h.M.BlockOf(core)
	bank := h.M.L2BankNode(b, line)
	rt := p.L2RT + h.M.Mesh.RTLatency(h.M.CoreNode(core), bank)
	if h.effLevel(lvl) == isa.LevelGlobal {
		rt += p.L3RT + h.M.Mesh.RTLatency(bank, h.M.L3Node(line))
	}
	return rt
}

// INV eliminates from the caches every line overlapping r (Section III-B):
// from the L1 for LevelAuto, from both L1 and the block's L2 for
// LevelGlobal. Dirty data is first written back, so INV never loses
// updates. It returns the exposed latency.
func (h *Hierarchy) INV(core int, r mem.Range, lvl isa.Level) int64 {
	if h.invFault(core) {
		return 1
	}
	return h.inv(core, r, lvl)
}

func (h *Hierarchy) inv(core int, r mem.Range, lvl isa.Level) int64 {
	lvl = h.effLevel(lvl)
	p := h.M.Params
	b := h.M.BlockOf(core)
	var lat int64
	drains := 0
	var dead cache.Line // victim buffer reused across lines
	r.Lines(func(line mem.Addr, _ mem.LineMask) {
		lat += p.ScanPerFrame
		if h.L1[core].InvalidateInto(line, &dead) {
			h.ctr(core).Inc("inv.l1lines", 1)
			if dead.IsDirty() {
				h.wbDirtyWordsOfInvalidated(b, &dead, lvl)
				drains++
			}
		}
		if lvl == isa.LevelGlobal {
			lat += p.ScanPerFrame // L2 tag check
			if h.L2[b].InvalidateInto(line, &dead) {
				h.ctr(core).Inc("inv.l2lines", 1)
				if dead.IsDirty() {
					h.pushL2WordsToL3(core, &dead)
					drains++
				}
			}
		}
		h.countLineOp(core, &invLines, lvl, 1)
	})
	lat += int64(drains) * p.WBOccupancy
	return lat
}

// wbDirtyWordsOfInvalidated saves the dirty words of an L1 line that is
// being invalidated. At LevelGlobal the block L2 copy is dying too, so the
// words go straight to the L3/memory; at LevelAuto they merge into the L2.
func (h *Hierarchy) wbDirtyWordsOfInvalidated(b int, l *cache.Line, lvl isa.Level) {
	if h.effLevel(lvl) == isa.LevelGlobal {
		h.M.Mesh.Account(stats.Writeback, noc.DataFlits(l.Dirty.Count()*mem.WordBytes))
		h.mergeBelowL2NoTraffic(l.Tag, &l.Words, l.Dirty)
	} else {
		h.mergeBelowL1(b, l.Tag, &l.Words, l.Dirty)
	}
}

// WBAll writes back every dirty line of core's L1 (Section IV-A's WB ALL).
// With useMEB and a valid (non-overflowed) MEB, only the recorded frames
// are scanned (Section IV-B.1); otherwise the whole tag array is traversed.
// At LevelGlobal the whole local block's L2 is written back to the L3 as
// well (Section V-B's WB_CONS ALL behaviour, also used by the inter-block
// Base configuration's "WB ALL to L3").
func (h *Hierarchy) WBAll(core int, useMEB bool, lvl isa.Level) int64 {
	if lat, sabotaged := h.wbFaultAll(core); sabotaged {
		return lat
	}
	return h.wbAll(core, useMEB, lvl)
}

func (h *Hierarchy) wbAll(core int, useMEB bool, lvl isa.Level) int64 {
	lvl = h.effLevel(lvl)
	p := h.M.Params
	l1 := h.L1[core]
	meb := h.meb[core]
	var lat int64
	written := 0

	if useMEB && meb != nil && meb.Valid() {
		h.ctr(core).Inc("meb.served", 1)
		if h.fi != nil {
			// Lines a faulty MEB silently discarded are invisible to this
			// entry scan: hand them to the oracle as misses.
			h.fi.FlushMEBLost()
		}
		lat += int64(meb.Len()) * p.ScanPerFrame
		for _, f := range meb.Entries() {
			if l := l1.Frame(f); l.Valid && l.IsDirty() {
				h.wbDirtyWords(core, l, lvl)
				written++
			}
		}
	} else {
		if useMEB && meb != nil {
			h.ctr(core).Inc("meb.fallback", 1)
		}
		if h.fi != nil {
			// The full traversal sees every dirty line, so discarded MEB
			// records cost nothing here.
			h.fi.ClearMEBLost()
		}
		lat += int64(l1.NumFrames()) * p.TraversalPerFrame
		l1.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				h.wbDirtyWords(core, l, lvl)
				written++
			}
		})
	}
	lat += int64(written) * p.WBOccupancy
	if written > 0 {
		lat += h.wbDrainRT(core, 0, lvl)
	}
	if meb != nil {
		meb.Clear()
		h.sampleMEB(core)
	}
	h.countLineOp(core, &wbLines, lvl, int64(written))

	if lvl == isa.LevelGlobal {
		b := h.M.BlockOf(core)
		l2 := h.L2[b]
		// Banked parallel traversal of the block's L2 tags.
		lat += int64(l2.NumFrames()/h.M.CoresPerBlock) * p.TraversalPerFrame
		l2written := 0
		l2.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				h.pushL2WordsToL3(core, l)
				l2written++
			}
		})
		lat += int64(l2written) * p.WBOccupancy
		if l2written > 0 {
			lat += p.L3RT + h.M.Mesh.RTLatency(h.M.CoreNode(core), h.M.L3Node(0))
		}
		h.countLineOp(core, &wbLines, lvl, int64(l2written))
	}
	return lat
}

// INVAll invalidates core's whole L1 (Section IV-A's INV ALL). With lazy
// and an IEB present, no lines are invalidated now; instead the IEB is
// armed and first reads self-invalidate lazily (Section IV-B.2). At
// LevelGlobal the whole local block's L2 is flash-invalidated as well
// (INV_PROD ALL / inter-block Base's "INV ALL from L2"). Dirty data is
// always written back before invalidation.
func (h *Hierarchy) INVAll(core int, lazy bool, lvl isa.Level) int64 {
	if h.invFault(core) {
		return 1
	}
	return h.invAll(core, lazy, lvl)
}

func (h *Hierarchy) invAll(core int, lazy bool, lvl isa.Level) int64 {
	lvl = h.effLevel(lvl)
	p := h.M.Params
	if lazy && lvl == isa.LevelAuto {
		if b := h.ieb[core]; b != nil {
			b.Arm()
			h.sampleIEB(core)
			h.ctr(core).Inc("ieb.armed", 1)
			return 1
		}
	}
	b := h.M.BlockOf(core)
	drains := 0
	n := h.L1[core].FlashInvalidate(func(l *cache.Line) {
		h.wbDirtyWordsOfInvalidated(b, l, lvl)
		drains++
	})
	h.ctr(core).Inc("inv.l1lines", int64(n))
	h.countLineOp(core, &invLines, lvl, int64(n))
	lat := p.FlashCost + int64(drains)*p.WBOccupancy
	if lvl == isa.LevelGlobal {
		l2drains := 0
		n2 := h.L2[b].FlashInvalidate(func(l *cache.Line) {
			h.pushL2WordsToL3(core, l)
			l2drains++
		})
		h.ctr(core).Inc("inv.l2lines", int64(n2))
		h.countLineOp(core, &invLines, lvl, int64(n2))
		lat += p.FlashCost + int64(l2drains)*p.WBOccupancy
	}
	return lat
}

// levelCounters names one protocol counter per WB/INV level: [0] for
// LevelAuto, [1] for LevelGlobal. The tables below are built once, so
// counting an operation builds no string.
type levelCounters [2]string

var (
	wbLines    = levelCounters{"wb.lines.local", "wb.lines.global"}
	invLines   = levelCounters{"inv.lines.local", "inv.lines.global"}
	wbConsOps  = levelCounters{"wbcons.auto", "wbcons.global"}
	invProdOps = levelCounters{"invprod.auto", "invprod.global"}
)

// at returns the counter name for lvl.
func (n *levelCounters) at(lvl isa.Level) string {
	if lvl == isa.LevelGlobal {
		return n[1]
	}
	return n[0]
}

// countLineOp tracks line-granular WB/INV operations by level, feeding the
// Figure 11 global-operation counts; names is wbLines or invLines.
func (h *Hierarchy) countLineOp(core int, names *levelCounters, lvl isa.Level, n int64) {
	if n == 0 {
		return
	}
	h.ctr(core).Inc(names.at(lvl), n)
}

// GlobalOps returns the counts of global (L3-directed) WB line operations
// and global (L2-depth) INV line operations — the quantities compared in
// Figure 11.
func (h *Hierarchy) GlobalOps() (wb, inv int64) {
	c := h.Counters()
	return c.Get("wb.lines.global"), c.Get("inv.lines.global")
}
