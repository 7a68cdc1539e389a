package hwsync

import (
	"sort"

	"repro/internal/mem"
)

// Fingerprint hashes the controller's full synchronization state for the
// litmus explorer's dedup table: every lock's holder and queue, every
// barrier's arrival list, and every flag's value and waiter list, in
// ascending id order (the maps are keyed by program-chosen ids, so
// sorting makes the hash deterministic). Queue and waiter order is part
// of the state — grants are FIFO — so it is hashed positionally.
func (c *Controller) Fingerprint() uint64 {
	h := mem.FingerprintSeed
	for _, id := range sortedKeys(len(c.locks), func(ks []int) []int {
		for k := range c.locks {
			ks = append(ks, k)
		}
		return ks
	}) {
		l := c.locks[id]
		h = mem.Mix64(h, uint64(id)<<8|1)
		if l.held {
			h = mem.Mix64(h, uint64(l.holder)<<1|1)
		} else {
			h = mem.Mix64(h, 0)
		}
		h = hashPending(h, l.queue)
	}
	for _, id := range sortedKeys(len(c.barriers), func(ks []int) []int {
		for k := range c.barriers {
			ks = append(ks, k)
		}
		return ks
	}) {
		b := c.barriers[id]
		h = mem.Mix64(h, uint64(id)<<8|2)
		h = mem.Mix64(h, uint64(b.parties))
		h = hashPending(h, b.arrived)
	}
	for _, id := range sortedKeys(len(c.flags), func(ks []int) []int {
		for k := range c.flags {
			ks = append(ks, k)
		}
		return ks
	}) {
		f := c.flags[id]
		h = mem.Mix64(h, uint64(id)<<8|3)
		h = mem.Mix64(h, uint64(f.value))
		h = hashPending(h, f.waiters)
	}
	return mem.Mix64(h, uint64(c.Requests))
}

func hashPending(h uint64, ps []pending) uint64 {
	h = mem.Mix64(h, uint64(len(ps)))
	for _, p := range ps {
		h = mem.Mix64(h, uint64(p.thread))
		h = mem.Mix64(h, uint64(p.at))
		h = mem.Mix64(h, uint64(p.value))
	}
	return h
}

func sortedKeys(n int, collect func([]int) []int) []int {
	if n == 0 {
		return nil
	}
	ks := collect(make([]int, 0, n))
	sort.Ints(ks)
	return ks
}
