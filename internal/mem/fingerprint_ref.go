package mem

import "math/bits"

// ReferenceFingerprint is the differential reference for Fingerprint: the
// same hash, computed by walking every population-bitmap word of every
// resident page instead of only those the page summary marks. No
// simulation path calls it; tests compare the two (see the litmus
// package's FuzzStateFingerprintMatchesReference).
func (m *Memory) ReferenceFingerprint() uint64 {
	if m.oracle != nil {
		return m.oracle.fingerprint()
	}
	h := FingerprintSeed
	for pn, p := range m.pages {
		if p == nil {
			continue
		}
		base := Addr(uint32(pn) << pageShift)
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
