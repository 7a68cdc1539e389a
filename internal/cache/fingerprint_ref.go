package cache

import "repro/internal/mem"

// ReferenceFingerprint is the differential reference for Fingerprint: it
// scans every set and every way for valid frames, the formulation whose
// hash order and value the valid-bitmap walk must reproduce. No
// simulation path calls it; FuzzCacheOccupancy and the litmus package's
// FuzzStateFingerprintMatchesReference compare the two.
func (c *Cache) ReferenceFingerprint() uint64 {
	h := mem.FingerprintSeed
	ways := c.ways
	for s, b := range c.sets {
		if b == nil {
			continue
		}
		base := slot(s * ways)
		hasValid := false
		for w := 0; w < ways; w++ {
			if b.keys[base+w] != 0 {
				hasValid = true
				break
			}
		}
		if !hasValid {
			continue
		}
		h = mem.Mix64(h, uint64(s))
		for w := 0; w < ways; w++ {
			if b.keys[base+w] == 0 {
				continue
			}
			rank := 0
			for v := 0; v < ways; v++ {
				if b.lrus[base+v] < b.lrus[base+w] {
					rank++
				}
			}
			l := &b.lines[base+w]
			h = mem.Mix64(h, uint64(w))
			h = mem.Mix64(h, uint64(l.Tag))
			h = mem.Mix64(h, uint64(l.Dirty)<<8|uint64(l.State))
			h = mem.Mix64(h, uint64(rank))
			for i := range l.Words {
				h = mem.Mix64(h, uint64(l.Words[i]))
			}
		}
	}
	return h
}
