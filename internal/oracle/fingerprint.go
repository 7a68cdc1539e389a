package oracle

import "repro/internal/mem"

// Fingerprint hashes the oracle's complete shadow state for the litmus
// explorer's dedup table. Two explorer states are only interchangeable
// if their *futures produce the same verdicts*, and verdicts come from
// this shadow machine, so the fingerprint must cover everything the
// oracle's future decisions read: per-thread and per-primitive vector
// clocks, every shadow word's happens-before-last write and concurrent
// set, unpublished-write sets, last WB/INV sites, the per-address
// reported filter, and the violation totals.
//
// Map-held state is hashed entry by entry, each entry under a tag naming
// its map, and the entry hashes are summed: the sum does not depend on
// map order, so nothing is sorted. The shadow words are read from the
// oracle's word slab rather than by walking the map, and the
// unpublished-write sets contribute the sums the oracle keeps as it
// changes them. The call costs what the oracle holds and allocates
// nothing. ReferenceFingerprint hashes the same state in sorted key
// order.
func (o *Oracle) Fingerprint() uint64 {
	h := mem.FingerprintSeed
	for _, v := range o.vc {
		h = hashClock(h, v)
	}
	var sum uint64
	for id, v := range o.locks {
		sum += hashClock(mem.Mix64(tagLock, uint64(id)), v)
	}
	for id, v := range o.flags {
		sum += hashClock(mem.Mix64(tagFlag, uint64(id)), v)
	}
	for id, b := range o.barriers {
		sum += mem.Mix64(hashClock(mem.Mix64(tagBarrier, uint64(id)), b.acc), uint64(b.dones))
	}
	for _, ws := range o.wordSlab[:o.nwords] {
		sum += ws.hash()
	}
	for _, s := range o.unpubSum {
		sum += s
	}
	for a := range o.reported {
		sum += mem.Mix64(tagReported, uint64(a))
	}
	h = mem.Mix64(h, sum)
	for t := 0; t < o.n; t++ {
		h = hashOpAt(h, o.lastWB[t])
		h = hashOpAt(h, o.lastINV[t])
	}
	h = mem.Mix64(h, uint64(len(o.violations)))
	return mem.Mix64(h, uint64(o.total))
}

// Per-map seeds of the entry hashes Fingerprint sums, so that entries of
// different maps with equal keys and contents never hash alike.
var (
	tagLock     = mem.Mix64(mem.FingerprintSeed, 'L')
	tagFlag     = mem.Mix64(mem.FingerprintSeed, 'F')
	tagBarrier  = mem.Mix64(mem.FingerprintSeed, 'B')
	tagWord     = mem.Mix64(mem.FingerprintSeed, 'W')
	tagUnpub    = mem.Mix64(mem.FingerprintSeed, 'U')
	tagReported = mem.Mix64(mem.FingerprintSeed, 'R')
)

// unpubHash is the entry hash of address a in thread t's unpublished
// set.
func unpubHash(t int, a mem.Addr) uint64 {
	return mem.Mix64(mem.Mix64(tagUnpub, uint64(t)), uint64(a))
}

func (ws *wordState) hash() uint64 {
	h := mem.Mix64(tagWord, uint64(ws.addr))
	h = hashWrite(h, ws.wr)
	h = mem.Mix64(h, uint64(len(ws.conc)))
	for _, w := range ws.conc {
		h = hashWrite(h, w)
	}
	if ws.unchecked {
		h = mem.Mix64(h, ^uint64(0))
	}
	return h
}

func hashClock(h uint64, v vclock) uint64 {
	for _, x := range v {
		h = mem.Mix64(h, uint64(x))
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
