package core

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file implements the level-adaptive instructions of Section V:
// WB_CONS(addr, ConsID), INV_PROD(addr, ProdID), and their ALL forms. The
// hardware consults the local block's ThreadMap to decide whether the peer
// thread runs in the same block; if it does, the operation stays intra-block
// (WB to L2, INV from L1), otherwise it goes global (WB through to L3, INV
// from both L1 and L2). A program annotated with these instructions runs
// correctly under any thread-to-block mapping without modification.

// adaptiveLevel resolves the level for an operation between core and peer.
func (h *Hierarchy) adaptiveLevel(core, peer int) isa.Level {
	if h.sameBlock(core, peer) {
		return isa.LevelAuto
	}
	return isa.LevelGlobal
}

// WBCons executes WB_CONS(r, cons): write back r's dirty words so that
// consumer thread cons can see them, choosing the cache level from the
// ThreadMap.
func (h *Hierarchy) WBCons(core int, r mem.Range, cons int) int64 {
	lvl := h.adaptiveLevel(core, cons)
	h.ctr(core).Inc(wbConsOps.at(lvl), 1)
	// Consult the fault plan here, not in the internal impl, so one
	// instruction advances the WB cursor exactly once.
	if lat, sabotaged := h.wbFaultRange(core, r); sabotaged {
		return lat
	}
	return h.wb(core, r, lvl)
}

// InvProd executes INV_PROD(r, prod): self-invalidate r so that the next
// reads see producer thread prod's updates, choosing the cache level from
// the ThreadMap.
func (h *Hierarchy) InvProd(core int, r mem.Range, prod int) int64 {
	lvl := h.adaptiveLevel(core, prod)
	h.ctr(core).Inc(invProdOps.at(lvl), 1)
	if h.invFault(core) {
		return 1
	}
	return h.inv(core, r, lvl)
}

// WBConsAll executes WB_CONS ALL(cons). When the consumer is in another
// block, this writes back not just the local L1 but the whole local
// block's L2 to the L3 (Section V-B).
func (h *Hierarchy) WBConsAll(core, cons int) int64 {
	lvl := h.adaptiveLevel(core, cons)
	h.ctr(core).Inc(wbConsOps.at(lvl), 1)
	if lat, sabotaged := h.wbFaultAll(core); sabotaged {
		return lat
	}
	return h.wbAll(core, false, lvl)
}

// InvProdAll executes INV_PROD ALL(prod). When the producer is in another
// block, this self-invalidates not only the local L1 but the whole local
// block's L2 (Section V-B).
func (h *Hierarchy) InvProdAll(core, prod int) int64 {
	lvl := h.adaptiveLevel(core, prod)
	h.ctr(core).Inc(invProdOps.at(lvl), 1)
	if h.invFault(core) {
		return 1
	}
	return h.invAll(core, false, lvl)
}
