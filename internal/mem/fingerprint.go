package mem

import (
	"math/bits"
	"sort"
)

// State fingerprinting for the litmus explorer's dedup table. Every
// stateful component of the simulated machine folds itself into an
// FNV-64a accumulator through these helpers; the explorer treats two
// machine states with equal fingerprints as having identical futures.
// The mixing function is fixed (not seeded) so fingerprint-derived
// counts are stable across runs and platforms.

// Fingerprint accumulation constants: FNV-64a offset basis and prime.
const (
	FNVOffset uint64 = 14695981039346656037
	FNVPrime  uint64 = 1099511628211
)

// Mix64 folds the 8 bytes of v into the FNV-64a accumulator h.
func Mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= FNVPrime
		v >>= 8
	}
	return h
}

// Fingerprint hashes the full contents of the backing store: every word
// ever written, in ascending address order, as (address, value) pairs.
// Pages are dense bitmapped arrays, so iteration order is deterministic;
// the map-backed oracle store sorts its keys first.
func (m *Memory) Fingerprint() uint64 {
	h := FNVOffset
	if m.oracle != nil {
		addrs := make([]Addr, 0, len(m.oracle.words))
		for a := range m.oracle.words {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			h = Mix64(h, uint64(a))
			h = Mix64(h, uint64(m.oracle.words[a]))
		}
		return h
	}
	for pn, p := range m.pages {
		if p == nil {
			continue
		}
		base := Addr(uint32(pn) << pageShift)
		// Walk only the set bits of the population bitmap: pages of a
		// reused (Reset) store stay resident, so scanning every word of
		// every page would cost the page size, not the footprint.
		for bi, bm := range p.written {
			for ; bm != 0; bm &= bm - 1 {
				wi := bi*64 + bits.TrailingZeros64(bm)
				h = Mix64(h, uint64(base)+uint64(wi*WordBytes))
				h = Mix64(h, uint64(p.words[wi]))
			}
		}
	}
	return h
}
