package mesi

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// dirTable is a flat, open-addressed hash table from line index
// (line address >> 6) to dirEntry, replacing the map[mem.Addr]*dirEntry
// directories. Two properties matter for correctness, not just speed:
//
//   - Pointer stability. Callers hold *dirEntry across operations that may
//     insert other entries (e.g. ensureL2 holds the L3 entry for the line
//     being fetched while recallL3Victim creates the entry for the evicted
//     line). Entries therefore live in a chunked arena — growth appends a
//     new chunk, never moves existing entries — and only the slot index
//     rehashes.
//
//   - No iteration in slot order. The old maps were never ranged over, so
//     replacing them cannot perturb any ordering the simulator observes;
//     the one walk, forEachSorted (for Fingerprint), goes in line order.
//
// Deleted entries go on a free list and are reused (zeroed) by the next
// insert, so steady-state directory footprint tracks the number of lines
// actually resident above the directory rather than every line ever seen.
type dirTable struct {
	slots  []dirSlot // power-of-two open-addressed index
	mask   uint32
	live   int // live entries
	filled int // live + tombstones; drives rehash
	chunks [][]dirEntry
	free   []int32
}

type dirSlot struct {
	key uint32 // line index; slotEmpty / slotDead are sentinels
	ref int32  // arena reference: chunk<<chunkShift | offset
}

const (
	slotEmpty = ^uint32(0)
	slotDead  = ^uint32(0) - 1

	chunkShift = 9 // 512 entries per chunk
	chunkSize  = 1 << chunkShift

	initialSlots = 256
)

// lineKey maps a line address to its table key. Line addresses are
// 64-byte-aligned 32-bit values, so the index needs only 26 bits and can
// never collide with the sentinels.
func lineKey(line mem.Addr) uint32 { return uint32(line >> 6) }

func hashKey(key uint32) uint32 {
	// Fibonacci hashing spreads the low-entropy high bits of sequential
	// line indices across the table.
	return key * 0x9E3779B9
}

func newDirTable() *dirTable {
	t := &dirTable{
		slots: make([]dirSlot, initialSlots),
		mask:  initialSlots - 1,
	}
	for i := range t.slots {
		t.slots[i].key = slotEmpty
	}
	return t
}

// len returns the number of live entries.
func (t *dirTable) len() int { return t.live }

// entry resolves an arena reference to its stable address.
func (t *dirTable) entry(ref int32) *dirEntry {
	return &t.chunks[ref>>chunkShift][ref&(chunkSize-1)]
}

// lookup returns the entry for line, or nil if absent.
func (t *dirTable) lookup(line mem.Addr) *dirEntry {
	key := lineKey(line)
	for i := hashKey(key) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key {
		case key:
			return t.entry(s.ref)
		case slotEmpty:
			return nil
		}
	}
}

// getOrCreate returns the entry for line, creating a zeroed one if absent.
// Existing entries never move; only the slot index may rehash.
func (t *dirTable) getOrCreate(line mem.Addr) *dirEntry {
	key := lineKey(line)
	firstDead := int32(-1)
	for i := hashKey(key) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key {
		case key:
			return t.entry(s.ref)
		case slotDead:
			if firstDead < 0 {
				firstDead = int32(i)
			}
		case slotEmpty:
			ref := t.alloc()
			if firstDead >= 0 {
				// Reuse the tombstone on the probe path; filled is
				// unchanged (a tombstone became live).
				t.slots[firstDead] = dirSlot{key: key, ref: ref}
			} else {
				*s = dirSlot{key: key, ref: ref}
				t.filled++
			}
			t.live++
			if t.filled*4 >= len(t.slots)*3 {
				t.rehash()
			}
			return t.entry(ref)
		}
	}
}

// del removes the entry for line, returning its storage to the free list.
// No-op if absent.
func (t *dirTable) del(line mem.Addr) {
	key := lineKey(line)
	for i := hashKey(key) & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.key {
		case key:
			t.free = append(t.free, s.ref)
			s.key = slotDead
			t.live--
			return
		case slotEmpty:
			return
		}
	}
}

// freeIfZero deletes line's entry when it carries no information: no
// presence, uncached, and neither migratory-sharing flag set (those are
// sticky across re-creation, so an entry holding one must survive).
// owner is only ever read under state == dirOwned, so losing it is safe.
// This is the free-on-last-sharer compaction: directories shrink when the
// caches above them drop their last copy.
func (t *dirTable) freeIfZero(line mem.Addr) {
	e := t.lookup(line)
	if e != nil && e.state == dirUncached && e.presence == 0 && !e.migrated && !e.noMigrate {
		t.del(line)
	}
}

// forEachSorted calls f for every live entry in ascending line order, so
// the walk does not depend on the slot layout an insert/delete history
// left behind.
func (t *dirTable) forEachSorted(f func(line mem.Addr, e *dirEntry)) {
	keys := make([]dirSlot, 0, t.live)
	for _, s := range t.slots {
		if s.key != slotEmpty && s.key != slotDead {
			keys = append(keys, s)
		}
	}
	slices.SortFunc(keys, func(a, b dirSlot) int { return cmp.Compare(a.key, b.key) })
	for _, s := range keys {
		f(mem.Addr(s.key)<<6, t.entry(s.ref))
	}
}

// alloc grabs a zeroed arena slot, preferring the free list.
func (t *dirTable) alloc() int32 {
	if n := len(t.free); n > 0 {
		ref := t.free[n-1]
		t.free = t.free[:n-1]
		*t.entry(ref) = dirEntry{}
		return ref
	}
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == chunkSize {
		t.chunks = append(t.chunks, make([]dirEntry, 0, chunkSize))
		n++
	}
	c := &t.chunks[n-1]
	*c = append(*c, dirEntry{})
	return int32((n-1)<<chunkShift | (len(*c) - 1))
}

// rehash rebuilds the slot index (dropping tombstones), doubling it when
// mostly full of live entries. Arena entries do not move.
func (t *dirTable) rehash() {
	size := len(t.slots)
	if t.live*2 >= size {
		size *= 2
	}
	old := t.slots
	t.slots = make([]dirSlot, size)
	t.mask = uint32(size - 1)
	for i := range t.slots {
		t.slots[i].key = slotEmpty
	}
	for _, s := range old {
		if s.key == slotEmpty || s.key == slotDead {
			continue
		}
		for i := hashKey(s.key) & t.mask; ; i = (i + 1) & t.mask {
			if t.slots[i].key == slotEmpty {
				t.slots[i] = s
				break
			}
		}
	}
	t.filled = t.live
}

// forEachSharerMask iterates set bits of a presence snapshot in ascending
// order — the same order (and same snapshot-at-entry semantics) as the old
// sharers() slice, without the allocation. The callback may mutate the
// entry's live presence word freely.
func forEachSharerMask(snapshot uint64, f func(i int)) {
	for p := snapshot; p != 0; {
		i := bits.TrailingZeros64(p)
		p &^= 1 << uint(i)
		f(i)
	}
}
