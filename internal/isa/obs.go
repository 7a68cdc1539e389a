package isa

import "repro/internal/mem"

// This file classifies operations for observers of a running machine —
// schedule explorers and the coherence oracle — that need to reason
// about what an op touches without re-deriving the hierarchy's behavior.

// IsINVFamily reports whether the op discards potentially stale private
// copies: the range, ALL, signature-filtered, and level-adaptive
// self-invalidation forms.
func (k OpKind) IsINVFamily() bool {
	switch k {
	case OpINV, OpINVAll, OpInvProd, OpInvProdAll, OpINVSig:
		return true
	}
	return false
}

// PureLocal reports whether the op touches no shared machine state at
// all: it commutes with every op of every other thread. Only compute
// qualifies — even a cache-hitting load can change LRU state that a
// later eviction observes.
func (o Op) PureLocal() bool { return o.Kind == OpCompute }

// Footprint returns the byte range of memory the op reads, writes, or
// flushes, and whether that range is statically known. Whole-cache
// flushes, DMA, signature ops, and synchronization return ok=false:
// their effect depends on dynamic cache or controller state, so
// observers must treat them as touching everything.
func (o Op) Footprint() (r mem.Range, ok bool) {
	switch o.Kind {
	case OpLoad, OpStore, OpLoadU, OpStoreU:
		return mem.WordRange(o.Addr, 1), true
	case OpWB, OpINV, OpWBCons, OpInvProd:
		return o.Range, true
	}
	return mem.Range{}, false
}
