package mesi

import (
	"repro/internal/cache"
	"repro/internal/levels"
	"repro/internal/mem"
)

// Fingerprint hashes the hierarchy's state: the backing memory, every L1,
// L2 and L3 (lines, MESI states, data and per-set LRU order), both
// directory levels and the protocol counters. Directory entries are
// visited in line order and counters in name order, so the hash does not
// depend on how the tables or the counter bag happen to be laid out. The
// cache event counters are not included; CacheStats reports them.
func (h *Hierarchy) Fingerprint() uint64 {
	fp := h.FingerprintWith((*mem.Memory).Fingerprint, (*cache.Cache).Fingerprint)
	for _, dirs := range [][]*dirTable{h.l2dir, h.l3dirs} {
		for i, t := range dirs {
			fp = mem.Mix64(fp, uint64(i)<<1|1)
			t.forEachSorted(func(line mem.Addr, e *dirEntry) {
				fp = mem.Mix64(fp, uint64(line))
				fp = mem.Mix64(fp, uint64(e.state)|levels.BoolBit(e.migrated)<<8|levels.BoolBit(e.noMigrate)<<9)
				fp = mem.Mix64(fp, e.presence)
				fp = mem.Mix64(fp, uint64(e.owner))
			})
		}
	}
	for _, name := range h.ctr.Names() {
		for i := 0; i < len(name); i++ {
			fp = mem.Mix64(fp, uint64(name[i]))
		}
		fp = mem.Mix64(fp, uint64(h.ctr.Get(name)))
	}
	return fp
}
