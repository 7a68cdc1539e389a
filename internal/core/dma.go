package core

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// This file implements the DMA engine that Runnemede uses for inter-block
// communication (Section VIII: "Runnemede does not specify how to
// communicate between blocks except through DMA operations initiated by a
// DMA engine"). A DMA copies a source range — whose data the software must
// first have pushed to the L3 with a global writeback — into a destination
// range, writing the lines into the L3 and depositing them directly into
// the target block's L2 (Runnemede's cluster memory). Consumers in the
// target block then self-invalidate only their L1s before reading.
//
// The initiating core drives the descriptor and blocks for the transfer
// (a synchronous model of the engine; asynchronous completion would hide
// part of the latency behind unrelated work, which none of the benchmarks
// here exploit). Like all incoherent-hierarchy mechanisms, DMA does not
// invalidate anybody's caches: stale private copies of the destination
// remain until their owners self-invalidate.

// DMACopy copies src to the range of equal length at dst, depositing the
// lines in the L3 and in block toBlock's L2, and returns the initiation
// latency. Ranges must be line-aligned and of equal, line-multiple length
// (the DMA engine works in whole lines).
func (h *Hierarchy) DMACopy(core int, dst mem.Addr, src mem.Range, toBlock int) int64 {
	if h.L3 == nil {
		// Single-block machine: the L2 is the only shared level; a DMA
		// degenerates to an L2-to-L2 copy within the block.
		toBlock = h.M.BlockOf(core)
	}
	if src.Base%mem.LineBytes != 0 || dst%mem.LineBytes != 0 || src.Bytes%mem.LineBytes != 0 {
		panic("core: DMA ranges must be line-aligned and line-multiple")
	}
	if toBlock < 0 || toBlock >= h.M.Blocks {
		panic("core: DMA target block out of range")
	}
	p := h.M.Params
	lines := int64(src.NumLines())
	h.ctr(core).Inc("dma.transfers", 1)
	h.ctr(core).Inc("dma.lines", lines)

	off := int64(dst) - int64(src.Base)
	src.Lines(func(line mem.Addr, _ mem.LineMask) {
		var words [mem.WordsPerLine]mem.Word
		// Source of truth: L3 (the caller wrote back globally), falling
		// back to memory.
		if h.L3 != nil {
			if l3l := h.L3.Peek(line); l3l != nil {
				words = l3l.Words
			} else {
				h.Backing.ReadLine(line, &words)
			}
		} else {
			b := h.M.BlockOf(core)
			if l2l := h.L2[b].Peek(line); l2l != nil {
				words = l2l.Words
			} else {
				h.Backing.ReadLine(line, &words)
			}
		}
		dline := mem.Addr(int64(line) + off)
		// Destination in L3 (dirty with respect to memory).
		if h.L3 != nil {
			if l3l := h.L3.Peek(dline); l3l != nil {
				l3l.Words = words
				l3l.Dirty = mem.FullMask
			} else {
				var victim cache.Line
				if _, evicted := h.L3.Insert(dline, &words, 0, &victim); evicted && victim.IsDirty() {
					h.writeMemory(victim.Tag, &victim.Words, victim.Dirty)
				}
				h.L3.Peek(dline).Dirty = mem.FullMask
			}
		} else {
			h.Backing.WriteLine(dline, &words, mem.FullMask)
		}
		// Deposit into the target block's L2 (clean: the L3 holds it too).
		l2 := h.L2[toBlock]
		if l2l := l2.Peek(dline); l2l != nil {
			l2l.Words = words
			l2l.Dirty = 0
		} else {
			var victim cache.Line
			if _, evicted := l2.Insert(dline, &words, 0, &victim); evicted && victim.IsDirty() {
				h.mergeBelowL2(victim.Tag, &victim.Words, victim.Dirty)
			}
		}
		h.M.Mesh.Account(stats.MemoryTraffic, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes)) // L3 read leg
		h.M.Mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))                     // deposit leg
	})

	// Initiation cost: descriptor round trip to the engine at the L3 plus
	// pipelined per-line occupancy.
	var rt int64
	if h.L3 != nil {
		rt = p.L3RT + h.M.Mesh.RTLatency(h.M.CoreNode(core), h.M.L3Node(src.Base))
	} else {
		b := h.M.BlockOf(core)
		rt = p.L2RT + h.M.Mesh.RTLatency(h.M.CoreNode(core), h.M.L2BankNode(b, src.Base))
	}
	return rt + lines*p.WBOccupancy
}
