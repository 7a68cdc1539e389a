package oracle

import (
	"cmp"
	"slices"

	"repro/internal/mem"
)

// ReferenceFingerprint is the differential reference for Fingerprint:
// the same shadow state hashed as one chain, each map's keys sorted into
// ascending order first. No simulation path calls it; the litmus
// package's FuzzStateFingerprintMatchesReference checks that two states'
// Fingerprints are equal exactly when their reference fingerprints are.
func (o *Oracle) ReferenceFingerprint() uint64 {
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

func (o *Oracle) hashClockMap(h uint64, m map[int]vclock) uint64 {
	o.intKeys = sortedKeys(o.intKeys, m)
	for _, id := range o.intKeys {
		h = mem.Mix64(h, uint64(id))
		h = hashClock(h, m[id])
	}
	return h
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
