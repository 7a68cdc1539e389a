package cache

import (
	"math/bits"

	"repro/internal/mem"
)

// Fingerprint hashes the behavioral state of the cache for the litmus
// explorer's dedup table: every valid frame's tag, dirty mask, MESI
// state, and word values, plus the *relative* LRU order within each set.
// Raw LRU stamps are monotone access counters, so two states reached by
// different (but equivalent) schedules would never compare equal on
// them; what future behavior actually depends on is only which way of a
// set is least recently used, i.e. the rank order of the stamps.
// Event counters are excluded: they never influence behavior.
func (c *Cache) Fingerprint() uint64 {
	h := mem.FingerprintSeed
	ways := c.ways
	set := -1
	// Valid frames arrive in frame order, so each set's ways are visited
	// together and in way order; a set is announced before its first one.
	for wi, bm := range c.valid {
		for ; bm != 0; bm &= bm - 1 {
			f := wi*64 + bits.TrailingZeros64(bm)
			s, w := f/ways, f%ways
			if s != set {
				set = s
				h = mem.Mix64(h, uint64(s))
			}
			b, lo, i := c.sets[s], slot(s*ways), slot(f)
			// Rank the stamp within the set: the number of ways with a
			// strictly smaller stamp. Invalid frames keep stamp 0 and tie
			// at the bottom, which is fine — they are skipped here and
			// victim selection prefers them regardless of stamp.
			rank := 0
			for v := lo; v < lo+ways; v++ {
				if b.lrus[v] < b.lrus[i] {
					rank++
				}
			}
			l := &b.lines[i]
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
