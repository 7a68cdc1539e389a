package core

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file implements the engine's ShardedHierarchy surface: the
// hierarchy's state decomposes by block (per-core L1s/MEBs/IEBs/Bloom
// accumulators, per-block L2s, per-block counter bags, per-block traffic
// accumulators), with only the L3, backing memory, Bloom channels, and
// delayed-fault state shared. The block-parallel executor may run an
// operation on its block's shard exactly when OpLocal vouches that the
// operation provably touches only that shard's slice of the state.
//
// OpLocal is a pure classifier: it peeks at caches without touching LRU
// state or counters, and errs on the side of false. Anything it cannot
// prove local — sync operations, uncached accesses, global-level WB/INV,
// L2 misses, victim writebacks that would descend past the L2, Bloom
// signature exchanges, DMA — executes at the coordinator between phases
// with every shard quiescent, exactly as in a serial run.

// SetBlockParallel opts the hierarchy in (or out) of block-parallel
// execution. Enabling it also gives the mesh per-block traffic
// accumulators so shard-local flit accounting stays race-free.
func (h *Hierarchy) SetBlockParallel(on bool) {
	h.blockPar = on
	if on {
		h.m.Mesh.SetTrafficShards(h.m.Blocks)
	} else {
		h.m.Mesh.SetTrafficShards(0)
	}
}

// ParallelShards returns the number of independent shards: one per block,
// except that fault injection and observability recording force serial
// execution (their state is deliberately not sharded — fault plans are
// global cursors and recorders sample freely across cores).
func (h *Hierarchy) ParallelShards() int {
	if !h.blockPar || h.fi != nil || h.rec != nil {
		return 1
	}
	return h.m.Blocks
}

// ShardOf maps a core to its shard — the block it belongs to. The shard
// index deliberately equals the block index: the engine's cross-block DMA
// check relies on OpDMACopy's Peer (a block) naming the target shard.
func (h *Hierarchy) ShardOf(core int) int { return h.m.BlockOf(core) }

// OpLocal reports whether op, executed now on core, provably touches only
// core's block: its L1/MEB/IEB/signature, the block's L2, and the block's
// counter and traffic accumulators. It must not mutate anything.
func (h *Hierarchy) OpLocal(core int, op *isa.Op) bool {
	if !h.blockPar || h.fi != nil || h.rec != nil {
		return false
	}
	b := h.m.BlockOf(core)
	switch op.Kind {
	case isa.OpCompute:
		return true
	case isa.OpLoad:
		return h.loadLocal(core, b, op.Addr)
	case isa.OpStore:
		return h.storeLocal(core, b, op.Addr)
	case isa.OpWB:
		return h.effLevel(op.Level) != isa.LevelGlobal && h.rangeLocal(core, b, op.Range)
	case isa.OpINV:
		return h.effLevel(op.Level) != isa.LevelGlobal && h.rangeLocal(core, b, op.Range)
	case isa.OpINVAll:
		// The lazy form only arms the core's IEB; the eager flash form
		// may drain dirty lines below the L2, so it stays global.
		return op.Lazy && h.effLevel(op.Level) == isa.LevelAuto && h.ieb[core] != nil
	case isa.OpWBCons:
		return h.adaptiveLevel(core, op.Peer) != isa.LevelGlobal && h.rangeLocal(core, b, op.Range)
	case isa.OpInvProd:
		return h.adaptiveLevel(core, op.Peer) != isa.LevelGlobal && h.rangeLocal(core, b, op.Range)
	}
	// Sync ops, uncached accesses, whole-cache WB/INV traversals, the
	// level-adaptive ALL forms, Bloom signature exchanges, and DMA all
	// reach shared state (or other shards): coordinator-only.
	return false
}

// loadLocal mirrors Load's control flow: an L1 hit is local; a miss is
// local when the fill stays within the block (fillLocal). With an armed
// IEB, the first epoch-read of a cached line self-invalidates it (after
// draining its dirty words into the L2) and refills — local only when
// both the drain and the refill stay in the block.
func (h *Hierarchy) loadLocal(core, b int, a mem.Addr) bool {
	l1 := h.l1[core]
	line := mem.LineAddr(a)
	l := l1.Peek(a)
	if ieb := h.ieb[core]; ieb != nil && ieb.Armed() {
		if !ieb.Contains(line) && !(l != nil && l.Dirty.Has(mem.WordIndex(a))) && l != nil {
			// The load will self-invalidate and refetch this line.
			if l.IsDirty() && h.l2[b].Peek(line) == nil {
				return false // the drain would descend below the L2
			}
			l = nil // the refill takes the just-freed frame
		}
	}
	if l != nil {
		return true
	}
	return h.fillLocal(core, b, line)
}

// storeLocal mirrors Store: an L1 hit only dirties the L1 (and the MEB
// and Bloom accumulator, both per-core); a miss needs a local fill. Under
// write-through the stored word also merges into the block's L2, so the
// line must be present there.
func (h *Hierarchy) storeLocal(core, b int, a mem.Addr) bool {
	if h.cfg.WriteThrough && h.l2[b].Peek(a) == nil {
		return false
	}
	if h.l1[core].Peek(a) != nil {
		return true
	}
	return h.fillLocal(core, b, mem.LineAddr(a))
}

// fillLocal reports whether filling line into core's L1 stays inside the
// block: the line must hit the block's L2, and the victim the insertion
// would displace must not carry dirty words that would miss the L2 on
// their way down. (If the victim prediction is stale because the set has
// since gained an invalid frame, the real insertion is strictly safer: it
// uses the invalid frame and evicts nothing.)
func (h *Hierarchy) fillLocal(core, b int, line mem.Addr) bool {
	if h.l2[b].Peek(line) == nil {
		return false
	}
	l1 := h.l1[core]
	v := l1.Frame(l1.Victim(line))
	return !v.IsDirty() || h.l2[b].Peek(v.Tag) != nil
}

// rangeLocal reports whether a local-level WB or INV over r stays inside
// the block: every line of r with a dirty L1 copy must hit the block's L2
// (the drain merges there; clean lines move no data). INV additionally
// removes clean L1 lines, which is always core-local.
func (h *Hierarchy) rangeLocal(core, b int, r mem.Range) bool {
	ok := true
	r.Lines(func(line mem.Addr, _ mem.LineMask) {
		if !ok {
			return
		}
		if l := h.l1[core].Peek(line); l != nil && l.IsDirty() && h.l2[b].Peek(line) == nil {
			ok = false
		}
	})
	return ok
}
