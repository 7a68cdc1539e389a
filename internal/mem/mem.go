// Package mem defines the simulated physical address space shared by every
// cache hierarchy in this repository: 32-bit byte addresses, 4-byte words,
// and 64-byte cache lines (16 words per line, matching the per-line 16 dirty
// bits of the paper's Table III), plus the word-granular backing memory that
// sits below the last-level cache.
package mem

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Addr is a byte address in the simulated flat physical address space.
type Addr uint32

// Word is the value of one aligned 4-byte memory word, the finest sharing
// granularity of the architecture (per-word dirty bits).
type Word uint32

// Geometry of the memory system. These are fixed by the paper's Table III
// (64 B lines) and its choice of word as the finest dirty-bit granularity.
const (
	WordBytes    = 4
	LineBytes    = 64
	WordsPerLine = LineBytes / WordBytes
)

// LineAddr returns the address of the first byte of the line containing a.
func LineAddr(a Addr) Addr { return a &^ (LineBytes - 1) }

// WordAddr returns the address of the first byte of the word containing a.
func WordAddr(a Addr) Addr { return a &^ (WordBytes - 1) }

// WordIndex returns the index (0..15) of a's word within its line.
func WordIndex(a Addr) int { return int(a%LineBytes) / WordBytes }

// WordOfLine returns the address of word i of the line containing a.
func WordOfLine(line Addr, i int) Addr { return LineAddr(line) + Addr(i*WordBytes) }

// LineMask is the per-word dirty/valid bitmask type for one line: bit i
// covers word i.
type LineMask uint16

// FullMask covers every word of a line.
const FullMask LineMask = 1<<WordsPerLine - 1

// Bit returns the mask selecting word i of a line.
func Bit(i int) LineMask { return 1 << uint(i) }

// Count returns the number of words selected by m.
func (m LineMask) Count() int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Has reports whether word i is selected by m.
func (m LineMask) Has(i int) bool { return m&Bit(i) != 0 }

// Range is a byte range [Base, Base+Bytes) in the address space. Ranges are
// how programs name operands of WB and INV instructions; the hardware
// expands them to line boundaries.
type Range struct {
	Base  Addr
	Bytes uint32
}

// RangeOf builds a Range covering n bytes at base.
func RangeOf(base Addr, n uint32) Range { return Range{Base: base, Bytes: n} }

// WordRange builds a Range covering n words at base.
func WordRange(base Addr, n int) Range { return Range{Base: base, Bytes: uint32(n * WordBytes)} }

// Empty reports whether the range covers no bytes.
func (r Range) Empty() bool { return r.Bytes == 0 }

// End returns the first address past the range.
func (r Range) End() Addr { return r.Base + Addr(r.Bytes) }

// Contains reports whether a lies inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Overlaps reports whether the two ranges share at least one byte.
func (r Range) Overlaps(o Range) bool {
	if r.Empty() || o.Empty() {
		return false
	}
	return r.Base < o.End() && o.Base < r.End()
}

// Lines calls fn once for every line that overlaps the range, in ascending
// address order, with the mask of words of that line that lie inside the
// range. WB and INV internally operate at line granularity (Section III-B);
// the mask lets callers honor word-granularity dirty bits.
func (r Range) Lines(fn func(line Addr, words LineMask)) {
	if r.Empty() {
		return
	}
	first := LineAddr(r.Base)
	last := LineAddr(r.End() - 1)
	for line := first; ; line += LineBytes {
		var m LineMask
		for i := 0; i < WordsPerLine; i++ {
			w := WordOfLine(line, i)
			if w+WordBytes > r.Base && w < r.End() {
				m |= Bit(i)
			}
		}
		fn(line, m)
		if line == last {
			break
		}
	}
}

// NumLines returns how many lines the range overlaps.
func (r Range) NumLines() int {
	if r.Empty() {
		return 0
	}
	return int((LineAddr(r.End()-1)-LineAddr(r.Base))/LineBytes) + 1
}

func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint32(r.Base), uint32(r.End()))
}

// Geometry of the paged backing store: fixed-size pages indexed by
// addr >> pageShift. 64 KiB pages keep the page table small for the low
// address ranges workloads actually touch while making line operations
// single-page slice copies (a line never straddles a page because
// pageShift > 6).
const (
	pageShift = 16
	pageBytes = 1 << pageShift
	pageWords = pageBytes / WordBytes
)

// page is one backing-store page: its word values plus a population bitmap
// (bit w set once word w has been written) that keeps Footprint exact, and
// a summary of that bitmap (bit b set by the write that makes written[b]
// nonzero) so that Fingerprint and Reset visit only the bitmap words a
// run touched.
type page struct {
	words   [pageWords]Word
	written [pageWords / 64]uint64
	nonzero [pageWords / 64 / 64]uint64
}

// Memory is the word-granular backing store below the last-level cache. It
// holds real values so that the simulators are functional, not just timed:
// a consumer that misses a required self-invalidation observably reads a
// stale value.
//
// Memory is sparse; untouched words read as zero. The default
// implementation is a paged store — a page table of fixed-size pages grown
// on demand — so the word and line paths are index arithmetic plus slice
// copies with zero allocation in steady state. The original map-backed
// store is retained as storeOracle for differential testing.
type Memory struct {
	pages  []*page
	pop    int
	oracle *storeOracle // non-nil: answer through the map oracle instead
}

// oracleDefault makes NewMemory return oracle-backed stores. It exists so
// regression tests can run a whole sweep against the reference
// implementation; see UseOracleStore.
var oracleDefault atomic.Bool

// UseOracleStore globally switches NewMemory between the paged store
// (false, the default) and the retained map-backed storeOracle (true).
// It is a test hook: the byte-identical-results regression runs one sweep
// under each backend and compares the canonical documents.
func UseOracleStore(v bool) { oracleDefault.Store(v) }

// NewMemory returns an empty backing store.
func NewMemory() *Memory {
	if oracleDefault.Load() {
		return NewOracleMemory()
	}
	return &Memory{}
}

// NewOracleMemory returns a backing store answered by the map-based
// storeOracle regardless of the UseOracleStore setting.
func NewOracleMemory() *Memory { return &Memory{oracle: newStoreOracle()} }

// page returns the page holding page number pn, growing the page table and
// allocating the page on first touch.
func (m *Memory) page(pn uint32) *page {
	if int(pn) >= len(m.pages) {
		grown := make([]*page, pn+1)
		copy(grown, m.pages)
		m.pages = grown
	}
	p := m.pages[pn]
	if p == nil {
		p = new(page)
		m.pages[pn] = p
	}
	return p
}

// Reset returns the store to the empty state NewMemory produced while
// keeping its pages: only the bitmap words the page summary marks are
// visited and only the words they mark are zeroed, so a reset costs what
// was written. A map-backed oracle store gets a fresh map.
func (m *Memory) Reset() {
	if m.oracle != nil {
		m.oracle = newStoreOracle()
		return
	}
	for _, p := range m.pages {
		if p == nil {
			continue
		}
		for si, sm := range p.nonzero {
			for ; sm != 0; sm &= sm - 1 {
				bi := si*64 + bits.TrailingZeros64(sm)
				for bm := p.written[bi]; bm != 0; bm &= bm - 1 {
					p.words[bi*64+bits.TrailingZeros64(bm)] = 0
				}
				p.written[bi] = 0
			}
			p.nonzero[si] = 0
		}
	}
	m.pop = 0
}

// ReadWord returns the value of the aligned word containing a.
func (m *Memory) ReadWord(a Addr) Word {
	if m.oracle != nil {
		return m.oracle.readWord(a)
	}
	pn := uint32(a) >> pageShift
	if int(pn) >= len(m.pages) || m.pages[pn] == nil {
		return 0
	}
	return m.pages[pn].words[(uint32(a)&(pageBytes-1))>>2]
}

// WriteWord stores v into the aligned word containing a.
func (m *Memory) WriteWord(a Addr, v Word) {
	if m.oracle != nil {
		m.oracle.writeWord(a, v)
		return
	}
	p := m.page(uint32(a) >> pageShift)
	wi := (uint32(a) & (pageBytes - 1)) >> 2
	p.words[wi] = v
	if bm := &p.written[wi>>6]; *bm&(1<<(wi&63)) == 0 {
		if *bm == 0 {
			p.nonzero[wi>>12] |= 1 << (wi >> 6 & 63)
		}
		*bm |= 1 << (wi & 63)
		m.pop++
	}
}

// ReadLine copies the 16 words of the line containing a into dst.
func (m *Memory) ReadLine(a Addr, dst *[WordsPerLine]Word) {
	if m.oracle != nil {
		m.oracle.readLine(a, dst)
		return
	}
	line := LineAddr(a)
	pn := uint32(line) >> pageShift
	if int(pn) >= len(m.pages) || m.pages[pn] == nil {
		*dst = [WordsPerLine]Word{}
		return
	}
	wi := (uint32(line) & (pageBytes - 1)) >> 2
	copy(dst[:], m.pages[pn].words[wi:wi+WordsPerLine])
}

// WriteLine stores the words of src selected by mask into the line
// containing a. Word-masked writes are what keep two cores that dirtied
// different words of the same line from clobbering each other (Section
// III-B).
func (m *Memory) WriteLine(a Addr, src *[WordsPerLine]Word, mask LineMask) {
	if m.oracle != nil {
		m.oracle.writeLine(a, src, mask)
		return
	}
	if mask == 0 {
		return
	}
	line := LineAddr(a)
	p := m.page(uint32(line) >> pageShift)
	wi := (uint32(line) & (pageBytes - 1)) >> 2
	// A line's 16 population bits land in a single bitmap word: wi is a
	// multiple of 16, so shift is 0, 16, 32, or 48.
	bm := &p.written[wi>>6]
	shift := wi & 63
	if mask == FullMask {
		copy(p.words[wi:wi+WordsPerLine], src[:])
	} else {
		for i := 0; i < WordsPerLine; i++ {
			if mask.Has(i) {
				p.words[wi+uint32(i)] = src[i]
			}
		}
	}
	if *bm == 0 {
		p.nonzero[wi>>12] |= 1 << (wi >> 6 & 63)
	}
	newly := (uint64(mask) << shift) &^ *bm
	m.pop += bits.OnesCount64(newly)
	*bm |= uint64(mask) << shift
}

// Stats reports the store's observability metrics, read at snapshot
// time (no per-access cost): the footprint in distinct words ever
// written and the resident page count. The map-backed oracle store has
// no pages and reports 0.
func (m *Memory) Stats() (footprintWords, pages int) {
	footprintWords = m.Footprint()
	if m.oracle != nil {
		return footprintWords, 0
	}
	for _, p := range m.pages {
		if p != nil {
			pages++
		}
	}
	return footprintWords, pages
}

// Footprint returns the number of distinct words ever written.
func (m *Memory) Footprint() int {
	if m.oracle != nil {
		return m.oracle.footprint()
	}
	return m.pop
}

// storeOracle is the original map-backed implementation of the backing
// store, kept verbatim as the reference for differential fuzzing of the
// paged store (see fuzz_test.go) and for whole-sweep byte-identical
// regression runs (UseOracleStore).
type storeOracle struct {
	words map[Addr]Word
}

func newStoreOracle() *storeOracle { return &storeOracle{words: make(map[Addr]Word)} }

func (o *storeOracle) readWord(a Addr) Word     { return o.words[WordAddr(a)] }
func (o *storeOracle) writeWord(a Addr, v Word) { o.words[WordAddr(a)] = v }

func (o *storeOracle) readLine(a Addr, dst *[WordsPerLine]Word) {
	line := LineAddr(a)
	for i := range dst {
		dst[i] = o.words[WordOfLine(line, i)]
	}
}

func (o *storeOracle) writeLine(a Addr, src *[WordsPerLine]Word, mask LineMask) {
	line := LineAddr(a)
	for i := 0; i < WordsPerLine; i++ {
		if mask.Has(i) {
			o.words[WordOfLine(line, i)] = src[i]
		}
	}
}

func (o *storeOracle) footprint() int { return len(o.words) }

// Arena hands out aligned, non-overlapping regions of the address space to
// workloads. Allocation starts above address 0 so that the zero Addr can be
// treated as "no address".
type Arena struct {
	next Addr
}

// NewArena returns an allocator starting at the first line above base
// (minimum one line).
func NewArena(base Addr) *Arena {
	if base == 0 {
		base = LineBytes
	}
	return &Arena{next: LineAddr(base + LineBytes - 1)}
}

// Alloc reserves n bytes aligned to a line boundary and returns the range.
// It panics once the line-rounded end of the allocation would pass the top
// of the 32-bit address space; the topmost line is unallocatable because a
// Range ending there could not represent its own End.
func (ar *Arena) Alloc(n uint32) Range {
	if n == 0 {
		n = WordBytes
	}
	r := Range{Base: ar.next, Bytes: n}
	next := (uint64(ar.next) + uint64(n) + LineBytes - 1) &^ uint64(LineBytes-1)
	if next >= 1<<32 {
		panic("mem: arena exhausted 32-bit address space")
	}
	ar.next = Addr(next)
	return r
}

// AllocWords reserves n words aligned to a line boundary.
func (ar *Arena) AllocWords(n int) Range { return ar.Alloc(uint32(n * WordBytes)) }

// Brk returns the first unallocated address.
func (ar *Arena) Brk() Addr { return ar.next }
