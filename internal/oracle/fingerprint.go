package oracle

import (
	"cmp"
	"slices"

	"repro/internal/mem"
)

// Fingerprint hashes the oracle's complete shadow state for the litmus
// explorer's dedup table. Two explorer states are only interchangeable
// if their *futures produce the same verdicts*, and verdicts come from
// this shadow machine, so the fingerprint must cover everything the
// oracle's future decisions read: per-thread and per-primitive vector
// clocks, every shadow word's happens-before-last write and concurrent
// set, unpublished-write sets, last WB/INV sites, the per-address
// reported filter, and the violation totals. Map iteration is made
// deterministic by sorting keys, into buffers the oracle keeps for the
// next call.
func (o *Oracle) Fingerprint() uint64 {
	h := mem.FingerprintSeed
	for _, v := range o.vc {
		h = hashClock(h, v)
	}
	// Tag each primitive-clock map so a lock's clock can never alias a
	// flag's with the same ID.
	h = mem.Mix64(h, uint64(len(o.locks))<<8|'L')
	h = o.hashClockMap(h, o.locks)
	h = mem.Mix64(h, uint64(len(o.flags))<<8|'F')
	h = o.hashClockMap(h, o.flags)
	o.intKeys = sortedKeys(o.intKeys, o.barriers)
	for _, id := range o.intKeys {
		b := o.barriers[id]
		h = mem.Mix64(h, uint64(id))
		h = hashClock(h, b.acc)
		h = mem.Mix64(h, uint64(b.dones))
	}
	o.addrKeys = sortedKeys(o.addrKeys, o.words)
	for _, a := range o.addrKeys {
		ws := o.words[a]
		h = mem.Mix64(h, uint64(a))
		h = hashWrite(h, ws.wr)
		h = mem.Mix64(h, uint64(len(ws.conc)))
		for _, w := range ws.conc {
			h = hashWrite(h, w)
		}
		if ws.unchecked {
			h = mem.Mix64(h, ^uint64(0))
		}
	}
	for t, set := range o.unpub {
		h = mem.Mix64(h, uint64(t))
		o.addrKeys = sortedKeys(o.addrKeys, set)
		for _, a := range o.addrKeys {
			h = mem.Mix64(h, uint64(a))
		}
	}
	for t := 0; t < o.n; t++ {
		h = hashOpAt(h, o.lastWB[t])
		h = hashOpAt(h, o.lastINV[t])
	}
	o.addrKeys = sortedKeys(o.addrKeys, o.reported)
	for _, a := range o.addrKeys {
		h = mem.Mix64(h, uint64(a))
	}
	h = mem.Mix64(h, uint64(len(o.violations)))
	return mem.Mix64(h, uint64(o.total))
}

func hashClock(h uint64, v vclock) uint64 {
	for _, x := range v {
		h = mem.Mix64(h, uint64(x))
	}
	return h
}

func (o *Oracle) hashClockMap(h uint64, m map[int]vclock) uint64 {
	o.intKeys = sortedKeys(o.intKeys, m)
	for _, id := range o.intKeys {
		h = mem.Mix64(h, uint64(id))
		h = hashClock(h, m[id])
	}
	return h
}

func hashWrite(h uint64, w writeRec) uint64 {
	h = mem.Mix64(h, uint64(w.thread))
	h = mem.Mix64(h, uint64(w.clock))
	h = mem.Mix64(h, uint64(w.cycle))
	v := uint64(w.val) << 1
	if w.published {
		v |= 1
	}
	return mem.Mix64(h, v)
}

func hashOpAt(h uint64, s opAt) uint64 {
	if !s.valid {
		return mem.Mix64(h, 0)
	}
	h = mem.Mix64(h, uint64(s.op.Kind)<<1|1)
	h = mem.Mix64(h, uint64(s.op.Range.Base))
	h = mem.Mix64(h, uint64(s.op.Range.Bytes))
	return mem.Mix64(h, uint64(s.cycle))
}

// sortedKeys refills buf with m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](buf []K, m map[K]V) []K {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}
