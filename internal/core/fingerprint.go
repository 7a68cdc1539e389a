package core

import (
	"repro/internal/cache"
	"repro/internal/levels"
	"repro/internal/mem"
)

// Fingerprint hashes every piece of hierarchy state that can influence
// future behavior, for the litmus explorer's dedup table: the backing
// memory, every cache (contents plus per-set LRU order), every core's
// MEB and IEB, and any dirty words parked by delay-wb faults. Protocol
// counters and traffic totals are excluded — they are observational.
// The litmus machines never enable Bloom signatures; Fingerprint panics
// if they are present rather than silently under-hashing.
func (h *Hierarchy) Fingerprint() uint64 {
	return h.fingerprint((*mem.Memory).Fingerprint, (*cache.Cache).Fingerprint)
}

// ReferenceFingerprint is Fingerprint over the memory's and the caches'
// reference fingerprints, the differential reference the litmus
// package's FuzzStateFingerprintMatchesReference checks Fingerprint
// against. No simulation path calls it.
func (h *Hierarchy) ReferenceFingerprint() uint64 {
	return h.fingerprint((*mem.Memory).ReferenceFingerprint, (*cache.Cache).ReferenceFingerprint)
}

func (h *Hierarchy) fingerprint(memFP func(*mem.Memory) uint64, cacheFP func(*cache.Cache) uint64) uint64 {
	if h.bloom != nil {
		panic("core: Fingerprint does not cover Bloom-signature state")
	}
	fp := h.FingerprintWith(memFP, cacheFP)
	for core, b := range h.meb {
		if b == nil {
			continue
		}
		fp = mem.Mix64(fp, uint64(core)<<8|1)
		fp = mem.Mix64(fp, uint64(len(b.entries)))
		for _, f := range b.entries {
			fp = mem.Mix64(fp, uint64(f))
		}
		fp = mem.Mix64(fp, levels.BoolBit(b.overflow))
	}
	for core, b := range h.ieb {
		if b == nil {
			continue
		}
		fp = mem.Mix64(fp, uint64(core)<<8|2)
		fp = mem.Mix64(fp, uint64(len(b.fifo)))
		for _, a := range b.fifo {
			fp = mem.Mix64(fp, uint64(a))
		}
		fp = mem.Mix64(fp, levels.BoolBit(b.armed))
	}
	for _, p := range h.delayed {
		fp = mem.Mix64(fp, uint64(p.line))
		fp = mem.Mix64(fp, uint64(p.mask))
		for i, w := range p.words {
			if p.mask.Has(i) {
				fp = mem.Mix64(fp, uint64(w))
			}
		}
	}
	return fp
}

// MinCacheSets returns the smallest set count among the hierarchy's
// caches. Two lines can conflict for capacity in *some* cache exactly
// when their line numbers are congruent modulo this value (set counts
// are powers of two), which is what isa.Deps needs to make independence
// sound under evictions.
func (h *Hierarchy) MinCacheSets() int {
	n := h.L1[0].Sets()
	h.EachCache(func(c *cache.Cache) { n = min(n, c.Sets()) })
	return n
}
