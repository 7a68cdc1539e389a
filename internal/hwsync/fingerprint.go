package hwsync

import (
	"repro/internal/mem"
)

// Fingerprint hashes the controller's full synchronization state for the
// litmus explorer's dedup table: every lock's holder and queue, every
// barrier's arrival list, and every flag's value and waiter list. Each
// entry hashes on its own and the entry hashes are summed, so the result
// does not depend on map order and the call neither sorts nor allocates.
// Queue and waiter order is part of the state — grants are FIFO — so it
// is hashed positionally within its entry. ReferenceFingerprint hashes
// the same state in sorted id order.
func (c *Controller) Fingerprint() uint64 {
	var sum uint64
	for id, l := range c.locks {
		sum += l.hash(id)
	}
	for id, b := range c.barriers {
		sum += b.hash(id)
	}
	for id, f := range c.flags {
		sum += f.hash(id)
	}
	return mem.Mix64(mem.Mix64(mem.FingerprintSeed, sum), uint64(c.Requests))
}

func (l *lockState) hash(id int) uint64 {
	h := mem.Mix64(mem.FingerprintSeed, uint64(id)<<8|1)
	if l.held {
		h = mem.Mix64(h, uint64(l.holder)<<1|1)
	} else {
		h = mem.Mix64(h, 0)
	}
	return hashPending(h, l.queue)
}

func (b *barrierState) hash(id int) uint64 {
	h := mem.Mix64(mem.FingerprintSeed, uint64(id)<<8|2)
	h = mem.Mix64(h, uint64(b.parties))
	return hashPending(h, b.arrived)
}

func (f *flagState) hash(id int) uint64 {
	h := mem.Mix64(mem.FingerprintSeed, uint64(id)<<8|3)
	h = mem.Mix64(h, uint64(f.value))
	return hashPending(h, f.waiters)
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
