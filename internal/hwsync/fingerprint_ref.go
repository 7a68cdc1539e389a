package hwsync

import (
	"sort"

	"repro/internal/mem"
)

// ReferenceFingerprint is the differential reference for Fingerprint: the
// same state hashed as one chain in ascending id order, each map's keys
// sorted first. No simulation path calls it; the litmus package's
// FuzzStateFingerprintMatchesReference checks that two states'
// Fingerprints are equal exactly when their reference fingerprints are.
func (c *Controller) ReferenceFingerprint() uint64 {
	h := mem.FingerprintSeed
	for _, id := range sortedKeys(c.locks) {
		l := c.locks[id]
		h = mem.Mix64(h, uint64(id)<<8|1)
		if l.held {
			h = mem.Mix64(h, uint64(l.holder)<<1|1)
		} else {
			h = mem.Mix64(h, 0)
		}
		h = hashPending(h, l.queue)
	}
	for _, id := range sortedKeys(c.barriers) {
		b := c.barriers[id]
		h = mem.Mix64(h, uint64(id)<<8|2)
		h = mem.Mix64(h, uint64(b.parties))
		h = hashPending(h, b.arrived)
	}
	for _, id := range sortedKeys(c.flags) {
		f := c.flags[id]
		h = mem.Mix64(h, uint64(id)<<8|3)
		h = mem.Mix64(h, uint64(f.value))
		h = hashPending(h, f.waiters)
	}
	return mem.Mix64(h, uint64(c.Requests))
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
