package cache

import "repro/internal/mem"

// Fingerprint hashes the behavioral state of the cache for the litmus
// explorer's dedup table: every valid frame's tag, dirty mask, MESI
// state, and word values, plus the *relative* LRU order within each set.
// Raw LRU stamps are monotone access counters, so two states reached by
// different (but equivalent) schedules would never compare equal on
// them; what future behavior actually depends on is only which way of a
// set is least recently used, i.e. the rank order of the stamps.
// Event counters are excluded: they never influence behavior.
func (c *Cache) Fingerprint() uint64 {
	h := mem.FNVOffset
	ways := c.cfg.Ways
	for s := 0; s < c.sets; s++ {
		base := s * ways
		hasValid := false
		for w := 0; w < ways; w++ {
			if c.keys[base+w] != 0 {
				hasValid = true
				break
			}
		}
		if !hasValid {
			continue
		}
		h = mem.Mix64(h, uint64(s))
		for w := 0; w < ways; w++ {
			if c.keys[base+w] == 0 {
				continue
			}
			// Rank the stamp within the set: the number of ways with a
			// strictly smaller stamp. Invalid frames keep stamp 0 and tie
			// at the bottom, which is fine — they are skipped here and
			// victim selection prefers them regardless of stamp.
			rank := 0
			for v := 0; v < ways; v++ {
				if c.lrus[base+v] < c.lrus[base+w] {
					rank++
				}
			}
			l := &c.frames[base+w]
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
