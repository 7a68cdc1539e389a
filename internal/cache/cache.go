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
// Storage is a set table with one pointer per set. A set's pointer is nil
// until the set's first Insert, which allocates a block holding the
// set's probe keys (line address and valid bit packed in one word), LRU
// stamps and lines in one allocation. A run touches a small share of a large machine's sets,
// so most sets of most caches never get storage. A hit loads the set's
// block pointer and then finds the probe keys and the line behind it;
// the keys come first and pack all eight ways into 32 bytes, so a probe
// reads one host cache line before it touches a 76-byte Line.
//
// A block has maxWays frames. A narrower cache's sets share blocks with
// their neighbours: the 8/ways sets whose frames fall in one block use
// that block, so a 4-way set pays for no padding. The first of them to
// take an Insert allocates the block and the others find it on their own
// first Insert; a set's pointer stays nil until then. Storage, once
// given, is kept until the cache is dropped (Reset included), so a frame
// that holds a line — or ever did — always has its block, and every
// path but Insert reads through the set table with at most a nil check.
//
// Frame f is way f%ways of set f/ways; its block is sets[f/ways] and its
// slot there f%maxWays.
//
// The valid bitmap has bit f set exactly when frame f holds a line;
// Insert sets it, InvalidateFrame and Reset clear it. Whole-cache
// walks — Reset, Fingerprint, ForEachValid, the counts and
// FlashInvalidate — visit only its set bits, so they cost what the cache
// holds, not its capacity.
type Cache struct {
	sets    []*block // one per set; nil until the set's first Insert
	ways    int
	shift   uint     // log2(ways): set s's frames start at s<<shift
	setMask mem.Addr // sets-1
	valid   []uint64 // occupancy bitmap, bit f%64 of word f/64
	clock   uint64

	// Event counters.
	Hits, Misses, Evictions, WritebacksOnEvict int64
}

// maxWays is the widest associativity a cache may have and the number of
// frames in a block. Every cache in the repository is 4- or 8-way.
const maxWays = 8

// block holds maxWays consecutive frames: one set of an 8-way cache, or
// 8/ways neighbouring sets of a narrower one. An LRU stamp is set only
// while the frame holds a line.
type block struct {
	keys  [maxWays]uint32 // keyOf the frame's line, or 0 when invalid
	lrus  [maxWays]uint64
	lines [maxWays]Line
}

// keyOf returns the probe key of the line holding addr: the line address
// with every offset bit set, which no invalid frame's 0 can equal. Any
// address within the line gives the same key.
func keyOf(addr mem.Addr) uint32 { return uint32(addr) | (mem.LineBytes - 1) }

// slot returns frame f's index within its block.
func slot(f int) int { return f & (maxWays - 1) }

// blockOf returns frame f's block, which exists once f's set has taken
// an Insert.
func (c *Cache) blockOf(f int) *block { return c.sets[f>>c.shift] }

// line returns frame f's line. f's set must have storage, which holds
// for any frame that has held a line since New.
func (c *Cache) line(f int) *Line { return &c.blockOf(f).lines[slot(f)] }

// storage returns set's block for Insert, giving the set one on its
// first Insert: the block its neighbours already share, or a new one.
func (c *Cache) storage(set int) *block {
	if b := c.sets[set]; b != nil {
		return b
	}
	share := maxWays >> c.shift // sets per block
	first := set &^ (share - 1)
	for s := first; s < first+share && s < len(c.sets); s++ {
		if b := c.sets[s]; b != nil {
			c.sets[set] = b
			return b
		}
	}
	b := new(block)
	c.sets[set] = b
	return b
}

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

// New builds a cache. Capacity must be a multiple of ways × line size,
// the way count a power of two no larger than 8, and the set count a
// power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Bytes <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	if cfg.Ways > maxWays || cfg.Ways&(cfg.Ways-1) != 0 {
		panic(fmt.Sprintf("cache: %d ways: want a power of two no larger than %d", cfg.Ways, maxWays))
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
		sets:    make([]*block, sets),
		ways:    cfg.Ways,
		shift:   uint(bits.TrailingZeros(uint(cfg.Ways))),
		setMask: mem.Addr(sets - 1),
		valid:   make([]uint64, (lines+63)/64),
	}
}

// Reset returns the cache to the state New produced — every frame
// invalid, LRU clock and event counters zero — keeping its storage, so a
// pooled cache refilled by the same run allocates nothing. Only valid
// frames are cleared (line, key and LRU stamp, as InvalidateFrame does):
// only a valid frame's stamp is ever set, so every other frame is
// already pristine and resetting a mostly-empty cache costs what was
// touched.
func (c *Cache) Reset() {
	for wi, w := range c.valid {
		for ; w != 0; w &= w - 1 {
			c.clearFrame(wi*64 + bits.TrailingZeros64(w))
		}
	}
	clear(c.valid)
	c.clock, c.Hits, c.Misses, c.Evictions, c.WritebacksOnEvict = 0, 0, 0, 0, 0
}

// clearFrame returns frame f's line, key and LRU stamp to zero; the
// caller clears its valid bit.
func (c *Cache) clearFrame(f int) {
	b, i := c.blockOf(f), slot(f)
	b.lines[i] = Line{}
	b.keys[i], b.lrus[i] = 0, 0
}

// NumFrames returns the number of line frames: the capacity, allocated
// or not.
func (c *Cache) NumFrames() int { return len(c.sets) << c.shift }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setOf returns the set index for an address.
func (c *Cache) setOf(addr mem.Addr) int {
	return int(addr / mem.LineBytes & c.setMask)
}

// probe returns the block and slot of the frame holding addr's line, or
// a nil block when the line is absent.
func (c *Cache) probe(addr mem.Addr) (*block, int) {
	set := c.setOf(addr)
	if b := c.sets[set]; b != nil {
		lo := slot(set << c.shift)
		for i, k := range b.keys[lo : lo+c.ways] {
			if k == keyOf(addr) {
				return b, lo + i
			}
		}
	}
	return nil, 0
}

// FrameOf returns the frame holding the given line address, or -1.
func (c *Cache) FrameOf(line mem.Addr) FrameID {
	b, i := c.probe(line)
	if b == nil {
		return -1
	}
	return FrameID(c.setOf(line)<<c.shift | i&(c.ways-1))
}

// Frame returns the line in frame f, which must have held a line since
// New (a frame Insert returned, FrameOf found or the MEB recorded): the
// storage of a set that never took an Insert does not exist. The pointer
// stays valid until the frame is reused; callers must not retain it
// across Insert calls.
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
	b, i := c.probe(addr)
	if b == nil {
		return nil
	}
	c.Hits++
	c.clock++
	b.lrus[i] = c.clock
	return &b.lines[i]
}

// Peek returns the valid line holding addr's line without touching LRU or
// counters. Hierarchy-internal probes (directory checks, WB traversals) use
// Peek so they do not perturb replacement or hit statistics. It is probe
// written out, so that it stays within the inliner's budget.
func (c *Cache) Peek(addr mem.Addr) *Line {
	set := c.setOf(addr)
	if b := c.sets[set]; b != nil {
		lo := slot(set << c.shift)
		for i, k := range b.keys[lo : lo+c.ways] {
			if k == keyOf(addr) {
				return &b.lines[lo+i]
			}
		}
	}
	return nil
}

// Victim selects the frame an insertion of line addr would use: an invalid
// way if one exists, else the LRU way of the set. It does not modify the
// cache.
func (c *Cache) Victim(addr mem.Addr) FrameID {
	set := c.setOf(addr)
	base := set << c.shift
	b := c.sets[set]
	if b == nil {
		return FrameID(base)
	}
	return FrameID(base + c.victimWay(b, slot(base)))
}

// victimWay returns the way Victim picks within the set whose frames
// start at slot lo of b.
func (c *Cache) victimWay(b *block, lo int) int {
	best := 0
	for w := 0; w < c.ways; w++ {
		if b.keys[lo+w] == 0 {
			return w
		}
		if b.lrus[lo+w] < b.lrus[lo+best] {
			best = w
		}
	}
	return best
}

// VictimLine returns the valid line an insertion of line addr would
// evict, or nil when Victim names an invalid way. Unlike Frame(Victim),
// it is safe on a set that never took an Insert, and it allocates
// nothing.
func (c *Cache) VictimLine(addr mem.Addr) *Line {
	set := c.setOf(addr)
	b := c.sets[set]
	if b == nil {
		return nil
	}
	lo := slot(set << c.shift)
	i := lo + c.victimWay(b, lo)
	if b.keys[i] == 0 {
		return nil
	}
	return &b.lines[i]
}

// Insert installs a line with the given data and state in a single set
// scan (duplicate check, invalid-way search, and LRU victim selection all
// derive from the same pass). It returns the frame the line landed in and
// whether a valid line was displaced; if so, the displaced line is copied
// into the caller-provided victim buffer (which may be nil when the caller
// only cares that an eviction happened). The caller is responsible for
// writing back the victim's dirty words; the WritebacksOnEvict counter
// tracks how often that was needed. Insert panics if the line is already
// present. Insert is the only method that allocates: a set's first
// Insert gives it storage.
func (c *Cache) Insert(line mem.Addr, words *[mem.WordsPerLine]mem.Word, st State, victim *Line) (FrameID, bool) {
	line = mem.LineAddr(line)
	want := keyOf(line)
	set := c.setOf(line)
	b := c.storage(set)
	lo := slot(set << c.shift)
	invalid := -1
	best := lo
	for i := lo; i < lo+c.ways; i++ {
		k := b.keys[i]
		if k == 0 {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if k == want {
			panic(fmt.Sprintf("cache: Insert of already-present line %#x", uint32(line)))
		}
		if b.lrus[i] < b.lrus[best] {
			best = i
		}
	}
	i := invalid
	evicted := false
	if i < 0 {
		i = best
		l := &b.lines[i]
		if victim != nil {
			*victim = *l
		}
		c.Evictions++
		if l.IsDirty() {
			c.WritebacksOnEvict++
		}
		evicted = true
	}
	b.lines[i] = Line{Tag: line, Valid: true, State: st, Words: *words}
	b.keys[i] = want
	c.clock++
	b.lrus[i] = c.clock
	f := set<<c.shift + i - lo
	c.valid[f/64] |= 1 << (f % 64)
	return FrameID(f), evicted
}

// InvalidateFrame clears frame f, which must hold a line. The caller must
// have dealt with dirty data first (written it back or deliberately
// dropped it).
func (c *Cache) InvalidateFrame(f FrameID) {
	c.clearFrame(int(f))
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
