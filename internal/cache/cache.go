// Package cache implements the set-associative write-back caches shared by
// both hierarchies in this repository. Lines carry real word values, a
// single valid bit, per-word dirty bits (Section III-B's fine-grained dirty
// bits), and — for the hardware-coherent configuration only — a MESI state
// byte that the incoherent hierarchy ignores.
//
// The cache is a passive structure: it looks up, inserts, evicts, and
// traverses lines, and counts events. All protocol behavior (what to do on
// a miss, where written-back data goes, who gets invalidated) lives in the
// hierarchy packages that own the caches.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is a MESI coherence state. Incoherent caches leave lines in
// StateNone; the mesi package uses the other values.
type State uint8

const (
	// StateNone marks a line whose cache is not hardware-coherent.
	StateNone State = iota
	// Invalid, Shared, Exclusive, Modified are the MESI stable states.
	Invalid
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case StateNone:
		return "-"
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line frame.
type Line struct {
	// Tag is the line address (full address of the line's first byte).
	Tag mem.Addr
	// Valid is the line's single valid bit. INV must clear the whole line
	// because there is only one valid bit (Section III-B).
	Valid bool
	// Dirty holds the per-word dirty bits.
	Dirty mem.LineMask
	// State is the MESI state for hardware-coherent caches.
	State State
	// Words are the line's data.
	Words [mem.WordsPerLine]mem.Word
}

// IsDirty reports whether any word of the line is dirty.
func (l *Line) IsDirty() bool { return l.Valid && l.Dirty != 0 }

// Merge writes the words of words that mask selects into the line and
// marks them dirty.
func (l *Line) Merge(words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	for i := 0; i < mem.WordsPerLine; i++ {
		if mask.Has(i) {
			l.Words[i] = words[i]
		}
	}
	l.Dirty |= mask
}

// FrameID identifies a physical line frame within a cache. The MEB records
// frame IDs rather than addresses: for a 32-KB cache with 64-B lines that
// is a 9-bit ID (Table III).
type FrameID int

// Config sizes a cache.
type Config struct {
	// Bytes is the total capacity.
	Bytes int
	// Ways is the associativity.
	Ways int
}

// Cache is one set-associative write-back cache.
//
// Line metadata that set scans need — the packed tag+valid key and the
// LRU stamp — lives in dense side arrays (structure-of-arrays): a Line
// is 76 bytes, so probing a set through the line data would stride a
// whole cache line of simulator memory per way, while the side arrays
// pack 8 ways into one. Lookup, Peek, FrameOf, Victim and Insert touch
// only the side arrays until they have a frame to return.
//
// The Line data itself is paged: pages is a page table of pageLines-frame
// pages, and a page is allocated by the first Insert into any of its
// frames, never by New. A run touches a small share of a large machine's
// frames, so most pages of most caches never exist. A page, once
// allocated, is kept until the cache is dropped (Reset included), so a
// frame that holds a line — or ever did — always has its page, and every
// path but Insert indexes the page table without a nil check.
//
// The valid bitmap has bit f set exactly when frame f holds a line
// (keys[f] != 0); Insert sets it, InvalidateFrame and Reset clear it. Whole-cache
// walks — Reset, Fingerprint, ForEachValid, the counts and FlashInvalidate
// — visit only its set bits, so they cost what the cache holds, not its
// capacity.
type Cache struct {
	cfg   Config
	sets  int
	pages []*page  // frame f's line is pages[f/pageLines][f%pageLines]
	keys  []uint64 // sets × ways, frame f = set*ways + way; tag | 1 when valid, 0 when invalid
	lrus  []uint64 // LRU stamps, parallel to keys
	valid []uint64 // occupancy bitmap, bit f%64 of word f/64
	clock uint64

	// Event counters.
	Hits, Misses, Evictions, WritebacksOnEvict int64
}

// pageLines is the number of frames whose lines share one page. Eight
// 76-byte lines make a 608-byte page: small enough that a page holding
// one line wastes little, large enough that the page table takes one
// byte per frame, an eighth of the key array.
const (
	pageShift = 3
	pageLines = 1 << pageShift
)

// page holds the lines of pageLines consecutive frames.
type page [pageLines]Line

// line returns frame f's line. f's page must exist, which holds for any
// frame that has held a line since New; line never allocates, so the
// read paths that use it stay small enough to inline.
func (c *Cache) line(f int) *Line { return &c.pages[f>>pageShift][f&(pageLines-1)] }

// slot is line for Insert: it allocates f's page on first use.
func (c *Cache) slot(f int) *Line {
	p := c.pages[f>>pageShift]
	if p == nil {
		p = new(page)
		c.pages[f>>pageShift] = p
	}
	return &p[f&(pageLines-1)]
}

// keyOf packs a line address and the valid bit into one comparable word.
// Line addresses are line-aligned, so bit 0 is free for the valid flag;
// an invalid frame's key is 0, which no valid line can produce.
func keyOf(line mem.Addr) uint64 { return uint64(line) | 1 }

// Stats is the cache's event counters in one bundle, read by the
// observability layer at snapshot time (the counters themselves are
// maintained on the lookup/insert paths regardless, so attaching a
// recorder adds no per-access cost here).
type Stats struct {
	Hits, Misses, Evictions, WritebacksOnEvict int64
}

// Stats returns the current counter values.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions, WritebacksOnEvict: c.WritebacksOnEvict}
}

// New builds a cache. Capacity must be a multiple of ways × line size and
// the set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Bytes <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	lines := cfg.Bytes / mem.LineBytes
	if lines*mem.LineBytes != cfg.Bytes || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d bytes not divisible into %d-way sets of %d-byte lines",
			cfg.Bytes, cfg.Ways, mem.LineBytes))
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return &Cache{
		cfg:   cfg,
		sets:  sets,
		pages: make([]*page, (lines+pageLines-1)/pageLines),
		keys:  make([]uint64, lines),
		lrus:  make([]uint64, lines),
		valid: make([]uint64, (lines+63)/64),
	}
}

// Reset returns the cache to the state New produced — every frame
// invalid, LRU clock and event counters zero — keeping its storage,
// allocated pages included, so a pooled cache refilled by the same run
// allocates nothing. Only valid frames are cleared (line, key and LRU
// stamp, as InvalidateFrame does): only a valid frame's stamp is ever
// set, so every other frame is already pristine and resetting a
// mostly-empty cache costs what was touched. Reset writes the frames
// out rather than calling InvalidateFrame so that it stays inlinable.
func (c *Cache) Reset() {
	for wi, w := range c.valid {
		for ; w != 0; w &= w - 1 {
			f := wi*64 + bits.TrailingZeros64(w)
			*c.line(f) = Line{}
			c.keys[f], c.lrus[f] = 0, 0
		}
	}
	clear(c.valid)
	c.clock, c.Hits, c.Misses, c.Evictions, c.WritebacksOnEvict = 0, 0, 0, 0, 0
}

// NumFrames returns the number of line frames: the capacity, allocated
// or not.
func (c *Cache) NumFrames() int { return len(c.keys) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// setOf returns the set index for a line address.
func (c *Cache) setOf(line mem.Addr) int {
	return int(line/mem.LineBytes) & (c.sets - 1)
}

// FrameOf returns the frame holding the given line address, or -1.
func (c *Cache) FrameOf(line mem.Addr) FrameID {
	line = mem.LineAddr(line)
	want := keyOf(line)
	base := c.setOf(line) * c.cfg.Ways
	for f := base; f < base+c.cfg.Ways; f++ {
		if c.keys[f] == want {
			return FrameID(f)
		}
	}
	return -1
}

// Frame returns the line in frame f, which must have held a line since
// New (a frame Insert returned, FrameOf found or the MEB recorded): the
// storage of a frame that never did may not exist. The pointer stays
// valid until the frame is reused; callers must not retain it across
// Insert calls.
func (c *Cache) Frame(f FrameID) *Line { return c.line(int(f)) }

// Lookup returns the valid line holding addr's line, or nil. A successful
// lookup refreshes LRU state and counts a hit; a failed one counts a miss.
// The set is scanned exactly once.
func (c *Cache) Lookup(addr mem.Addr) *Line {
	if l := c.LookupHit(addr); l != nil {
		return l
	}
	c.Misses++
	return nil
}

// LookupHit is Lookup without the miss count: a hit refreshes LRU state
// and counts a hit, a miss changes nothing. Callers that only act on a
// hit and otherwise fall back to a full Lookup use it so each miss is
// counted once.
func (c *Cache) LookupHit(addr mem.Addr) *Line {
	line := mem.LineAddr(addr)
	want := keyOf(line)
	base := c.setOf(line) * c.cfg.Ways
	for f := base; f < base+c.cfg.Ways; f++ {
		if c.keys[f] == want {
			c.Hits++
			c.touch(FrameID(f))
			return c.line(f)
		}
	}
	return nil
}

// Peek returns the valid line holding addr's line without touching LRU or
// counters. Hierarchy-internal probes (directory checks, WB traversals) use
// Peek so they do not perturb replacement or hit statistics.
func (c *Cache) Peek(addr mem.Addr) *Line {
	want := keyOf(mem.LineAddr(addr))
	base := c.setOf(addr) * c.cfg.Ways
	for i, k := range c.keys[base : base+c.cfg.Ways] {
		if k == want {
			return c.line(base + i)
		}
	}
	return nil
}

func (c *Cache) touch(f FrameID) {
	c.clock++
	c.lrus[f] = c.clock
}

// Victim selects the frame an insertion of line addr would use: an invalid
// way if one exists, else the LRU way of the set. It does not modify the
// cache.
func (c *Cache) Victim(addr mem.Addr) FrameID {
	base := c.setOf(mem.LineAddr(addr)) * c.cfg.Ways
	best := FrameID(base)
	for f := base; f < base+c.cfg.Ways; f++ {
		if c.keys[f] == 0 {
			return FrameID(f)
		}
		if c.lrus[f] < c.lrus[best] {
			best = FrameID(f)
		}
	}
	return best
}

// VictimLine returns the valid line an insertion of line addr would
// evict, or nil when Victim names an invalid way. Unlike Frame(Victim),
// it is safe on a frame that never held a line, and it allocates
// nothing.
func (c *Cache) VictimLine(addr mem.Addr) *Line {
	f := c.Victim(addr)
	if c.keys[f] == 0 {
		return nil
	}
	return c.line(int(f))
}

// Insert installs a line with the given data and state in a single set
// scan (duplicate check, invalid-way search, and LRU victim selection all
// derive from the same pass). It returns the frame the line landed in and
// whether a valid line was displaced; if so, the displaced line is copied
// into the caller-provided victim buffer (which may be nil when the caller
// only cares that an eviction happened). The caller is responsible for
// writing back the victim's dirty words; the WritebacksOnEvict counter
// tracks how often that was needed. Insert panics if the line is already
// present.
func (c *Cache) Insert(line mem.Addr, words *[mem.WordsPerLine]mem.Word, st State, victim *Line) (FrameID, bool) {
	line = mem.LineAddr(line)
	want := keyOf(line)
	base := c.setOf(line) * c.cfg.Ways
	invalid := -1
	best := base
	for f := base; f < base+c.cfg.Ways; f++ {
		k := c.keys[f]
		if k == 0 {
			if invalid < 0 {
				invalid = f
			}
			continue
		}
		if k == want {
			panic(fmt.Sprintf("cache: Insert of already-present line %#x", uint32(line)))
		}
		if c.lrus[f] < c.lrus[best] {
			best = f
		}
	}
	f := invalid
	evicted := false
	if f < 0 {
		f = best
		l := c.line(f)
		if victim != nil {
			*victim = *l
		}
		c.Evictions++
		if l.IsDirty() {
			c.WritebacksOnEvict++
		}
		evicted = true
	}
	*c.slot(f) = Line{Tag: line, Valid: true, State: st, Words: *words}
	c.keys[f] = want
	c.valid[f/64] |= 1 << (f % 64)
	c.touch(FrameID(f))
	return FrameID(f), evicted
}

// InvalidateFrame clears frame f, which must hold a line. The caller must
// have dealt with dirty data first (written it back or deliberately
// dropped it).
func (c *Cache) InvalidateFrame(f FrameID) {
	*c.line(int(f)) = Line{}
	c.keys[f] = 0
	c.lrus[f] = 0
	c.valid[f/64] &^= 1 << (f % 64)
}

// Invalidate removes addr's line if present and reports whether it was
// there. Callers that need the dying line's data (for example to write
// back its dirty words) use InvalidateInto instead.
func (c *Cache) Invalidate(addr mem.Addr) bool {
	f := c.FrameOf(addr)
	if f < 0 {
		return false
	}
	c.InvalidateFrame(f)
	return true
}

// InvalidateInto removes addr's line if present, copying the line as it
// was into the caller-provided victim buffer, and reports whether it was
// present. The buffer is untouched when the line is absent.
func (c *Cache) InvalidateInto(addr mem.Addr, victim *Line) bool {
	f := c.FrameOf(addr)
	if f < 0 {
		return false
	}
	*victim = *c.line(int(f))
	c.InvalidateFrame(f)
	return true
}

// ForEachValid calls fn for every valid line, in frame order. fn may
// mutate the line (for example, clear dirty bits during a full writeback)
// but must not insert or invalidate.
func (c *Cache) ForEachValid(fn func(f FrameID, l *Line)) {
	for wi, w := range c.valid {
		for ; w != 0; w &= w - 1 {
			f := wi*64 + bits.TrailingZeros64(w)
			fn(FrameID(f), c.line(f))
		}
	}
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, w := range c.valid {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountDirty returns the number of lines with at least one dirty word.
func (c *Cache) CountDirty() int {
	n := 0
	for wi, w := range c.valid {
		for ; w != 0; w &= w - 1 {
			if c.line(wi*64 + bits.TrailingZeros64(w)).IsDirty() {
				n++
			}
		}
	}
	return n
}

// FlashInvalidate clears every valid line, calling drain first on each
// line that has dirty words so the caller can save them. It returns the
// number of lines invalidated. This is the INV ALL primitive; per Section
// III-B, dirty data is never lost by INV.
func (c *Cache) FlashInvalidate(drain func(l *Line)) int {
	n := 0
	for wi := range c.valid {
		// Re-read the word each time: the frame just visited is cleared
		// by InvalidateFrame, so the lowest set bit is always the next
		// valid frame.
		for c.valid[wi] != 0 {
			f := wi*64 + bits.TrailingZeros64(c.valid[wi])
			if l := c.line(f); l.IsDirty() && drain != nil {
				drain(l)
			}
			c.InvalidateFrame(FrameID(f))
			n++
		}
	}
	return n
}
