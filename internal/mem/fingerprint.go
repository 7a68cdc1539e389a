package mem

import (
	"math/bits"
	"sort"
)

// State fingerprinting for the litmus explorer's dedup table. Every
// stateful component of the simulated machine folds itself into a 64-bit
// accumulator, one word at a time, through Mix64; the explorer treats two
// machine states with equal fingerprints as having identical futures.
// The mixing function is fixed (not seeded) so fingerprint-derived
// counts are stable across runs and platforms. Fingerprints live only in
// the explorer's in-memory tables and the engine's per-thread history
// hash: no fingerprint value is persisted or printed.

// FingerprintSeed is the accumulator every fingerprint starts from.
const FingerprintSeed uint64 = 14695981039346656037

// mixK is the odd multiplier of Mix64: 2^64 divided by the golden ratio,
// whose evenly spread bits carry every input bit into both halves of the
// 128-bit product.
const mixK uint64 = 0x9e3779b97f4a7c15

// Mix64 folds the word v into the accumulator h: one 64×64→128-bit
// multiply of h^v by mixK, with the high and low halves of the product
// XORed together. Mix64(0, 0) is 0, so callers that hash a stream of
// possibly-zero words from a zero accumulator tag each word (see the
// engine's history hash).
func Mix64(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, mixK)
	return hi ^ lo
}

// Fingerprint hashes the full contents of the backing store: every word
// ever written, in ascending address order, as (address, value) pairs.
// Pages are dense bitmapped arrays, so iteration order is deterministic;
// the map-backed oracle store sorts its keys first.
func (m *Memory) Fingerprint() uint64 {
	h := FingerprintSeed
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
