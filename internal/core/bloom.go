package core

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// This file implements Bloom-signature selective self-invalidation in the
// style of Ashby, Díaz and Cintra (Section VIII): each core accumulates
// the line addresses it writes into a Bloom signature; the signature is
// transferred with a synchronization release (published to a per-lock
// channel in the shared-cache controller); an acquirer self-invalidates
// only the cached lines that match the channel's signature, instead of
// executing INV ALL.
//
// Signatures are unioned into the channel at every release and are never
// subtracted (Bloom filters cannot forget), so channels saturate over
// time and selectivity decays toward INV ALL — the overhead in
// lock-intensive programs that the paper's MEB/IEB design avoids. The
// implementation exists to reproduce that comparison
// (BenchmarkExtensionBloom).

// Bloom is a fixed-size Bloom filter over line addresses.
type Bloom struct {
	bits   []uint64
	nbits  uint32
	hashes int
}

// NewBloom returns an empty filter of nbits bits (rounded up to 64) with
// the given number of hash functions.
func NewBloom(nbits, hashes int) *Bloom {
	if nbits <= 0 || hashes <= 0 {
		panic("core: Bloom filter needs positive size and hash count")
	}
	words := (nbits + 63) / 64
	return &Bloom{bits: make([]uint64, words), nbits: uint32(words * 64), hashes: hashes}
}

// hash derives the i-th bit index for a line address.
func (f *Bloom) hash(line mem.Addr, i int) uint32 {
	x := uint32(line/mem.LineBytes) * 2654435761
	x ^= uint32(i) * 2246822519
	x ^= x >> 15
	x *= 2654435761
	x ^= x >> 13
	return x % f.nbits
}

// Add inserts a line address.
func (f *Bloom) Add(line mem.Addr) {
	for i := 0; i < f.hashes; i++ {
		b := f.hash(line, i)
		f.bits[b/64] |= 1 << (b % 64)
	}
}

// MayContain reports whether line might have been added (no false
// negatives; false positives possible).
func (f *Bloom) MayContain(line mem.Addr) bool {
	for i := 0; i < f.hashes; i++ {
		b := f.hash(line, i)
		if f.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// Union ORs o into f.
func (f *Bloom) Union(o *Bloom) {
	for i := range f.bits {
		f.bits[i] |= o.bits[i]
	}
}

// Reset clears the filter.
func (f *Bloom) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// PopCount returns the number of set bits (saturation diagnostic).
func (f *Bloom) PopCount() int {
	n := 0
	for _, w := range f.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Bits returns the filter size in bits.
func (f *Bloom) Bits() int { return int(f.nbits) }

// SizeFlits returns the network cost of transferring the signature.
func (f *Bloom) SizeFlits() int64 { return noc.DataFlits(int(f.nbits) / 8) }

// The hierarchy's signatures are 256-bit filters with 2 hash functions.
const (
	bloomBits   = 256
	bloomHashes = 2
)

// bloomState is the per-hierarchy signature machinery.
type bloomState struct {
	write    []*Bloom       // per core: lines written since last publish
	channels map[int]*Bloom // per sync channel (lock ID): published union
}

func newBloomState(cores int) *bloomState {
	s := &bloomState{
		write:    make([]*Bloom, cores),
		channels: make(map[int]*Bloom),
	}
	for i := range s.write {
		s.write[i] = NewBloom(bloomBits, bloomHashes)
	}
	return s
}

// SigPublish transfers core's accumulated write signature to channel ch
// (the release side of Ashby's scheme) and resets the accumulator. The
// published union keeps growing: Bloom filters cannot forget.
func (h *Hierarchy) SigPublish(core, ch int) int64 {
	if h.bloom == nil {
		return 0
	}
	sig, ok := h.bloom.channels[ch]
	if !ok {
		sig = NewBloom(bloomBits, bloomHashes)
		h.bloom.channels[ch] = sig
	}
	w := h.bloom.write[core]
	sig.Union(w)
	w.Reset()
	h.ctr(core).Inc("bloom.publishes", 1)
	h.m.Mesh.Account(stats.SyncTraffic, w.SizeFlits())
	// The signature rides the release message to the controller.
	return h.m.SyncCost(core, ch) / 2
}

// INVSig selectively self-invalidates core's L1 using channel ch's
// signature (the acquire side): every cached line matching the signature
// is eliminated (dirty words written back first). The tag array is
// traversed in full — the signature only saves the invalidations and the
// refetch misses, not the scan.
func (h *Hierarchy) INVSig(core, ch int) int64 {
	if h.bloom == nil {
		return 0
	}
	p := h.m.Params
	sig, ok := h.bloom.channels[ch]
	if !ok {
		return p.ScanPerFrame
	}
	l1 := h.l1[core]
	lat := int64(l1.NumFrames()) * p.TraversalPerFrame
	drains := 0
	matched := 0
	var toDrop []mem.Addr
	l1.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
		if !sig.MayContain(l.Tag) {
			return
		}
		matched++
		if l.IsDirty() {
			h.wbDirtyWords(core, l, isa.LevelAuto)
			drains++
		}
		toDrop = append(toDrop, l.Tag)
	})
	for _, tag := range toDrop {
		l1.Invalidate(tag)
	}
	lat += int64(drains) * p.WBOccupancy
	h.ctr(core).Inc("bloom.invsig", 1)
	h.ctr(core).Inc("bloom.matched", int64(matched))
	h.ctr(core).Inc("inv.l1lines", int64(matched))
	h.countLineOp(core, "inv", isa.LevelAuto, int64(matched))
	return lat
}

// noteBloomWrite records a written line in core's signature accumulator.
func (h *Hierarchy) noteBloomWrite(core int, line mem.Addr) {
	if h.bloom != nil {
		h.bloom.write[core].Add(line)
	}
}

// BloomChannelSaturation returns the fraction of set bits in channel ch's
// signature (1.0 = INV ALL equivalence), for diagnostics and benches.
func (h *Hierarchy) BloomChannelSaturation(ch int) float64 {
	if h.bloom == nil {
		return 0
	}
	sig, ok := h.bloom.channels[ch]
	if !ok {
		return 0
	}
	return float64(sig.PopCount()) / float64(sig.Bits())
}

// BloomMaxSaturation returns the highest saturation over all channels.
func (h *Hierarchy) BloomMaxSaturation() float64 {
	if h.bloom == nil {
		return 0
	}
	var max float64
	for _, sig := range h.bloom.channels {
		if f := float64(sig.PopCount()) / float64(sig.Bits()); f > max {
			max = f
		}
	}
	return max
}
