package core

import (
	"repro/internal/cache"
	"repro/internal/mem"
)

// MEB is the Modified Entry Buffer of Section IV-B.1: a small hardware
// buffer that accumulates the frame IDs of cache lines written since the
// last full writeback. Each entry holds only a line frame ID (9 bits for a
// 32-KB cache), not an address, so entries can go stale when frames are
// reused — stale entries are deliberately not removed and at worst cause a
// harmless extra writeback, exactly as in the paper.
//
// One refinement over the paper's prose: the paper clears the MEB at every
// epoch and relies on the annotation discipline ("every epoch that writes
// ends in a WB ALL") to make MEB-assisted WB ALL complete. We instead clear
// the MEB only when a WB ALL executes, which makes the invariant
// unconditional: the MEB (when not overflowed) always covers every frame
// dirtied since the last WB ALL, so an MEB-assisted WB ALL can never miss
// a dirty line regardless of annotation choices. The cost is the same
// stale-entry false positives the paper already tolerates.
type MEB struct {
	cap      int
	entries  []cache.FrameID
	present  map[cache.FrameID]bool
	overflow bool

	// Records and Overflows count buffer activity for the metrics snapshot.
	Records, Overflows int64
}

// NewMEB returns an empty MEB with the given capacity (Table III: 16).
func NewMEB(capacity int) *MEB {
	if capacity <= 0 {
		panic("core: MEB capacity must be positive")
	}
	return &MEB{cap: capacity, present: make(map[cache.FrameID]bool, capacity)}
}

// Record notes that frame f had a clean word updated. It reports whether
// this record caused the buffer to overflow (entering the invalid state
// where WB ALL must fall back to a full traversal).
func (b *MEB) Record(f cache.FrameID) bool {
	b.Records++
	if b.overflow || b.present[f] {
		return false
	}
	if len(b.entries) == b.cap {
		b.overflow = true
		b.Overflows++
		return true
	}
	b.entries = append(b.entries, f)
	b.present[f] = true
	return false
}

// Valid reports whether the buffer contents can serve a WB ALL.
func (b *MEB) Valid() bool { return !b.overflow }

// Entries returns the recorded frame IDs (undefined order significance;
// hardware would scan them in insertion order).
func (b *MEB) Entries() []cache.FrameID { return b.entries }

// Len returns the number of recorded frames.
func (b *MEB) Len() int { return len(b.entries) }

// Has reports whether frame f is already recorded.
func (b *MEB) Has(f cache.FrameID) bool { return b.present[f] }

// Clear empties the buffer; called when a WB ALL executes.
func (b *MEB) Clear() {
	b.entries = b.entries[:0]
	for k := range b.present {
		delete(b.present, k)
	}
	b.overflow = false
}

// IEB is the Invalidated Entry Buffer of Section IV-B.2: a small buffer of
// exact line addresses that do not need invalidation on a future read,
// because they were already read (and refreshed) earlier in the epoch. It
// is armed by a lazy INV ALL at epoch entry and disarmed at the next
// synchronization. While armed, the first read of each line self-invalidates
// and refetches the line; reads filtered by the IEB proceed normally.
//
// The buffer is tiny (Table III: 4 entries) because it is searched on every
// L1 read; eviction is FIFO, and an evicted line's next read costs one
// unnecessary invalidation plus a miss — a performance loss, never a
// correctness one.
type IEB struct {
	cap   int
	fifo  []mem.Addr
	armed bool

	// Insertions and Evictions count buffer activity.
	Insertions, Evictions int64
}

// NewIEB returns a disarmed IEB with the given capacity (Table III: 4).
func NewIEB(capacity int) *IEB {
	if capacity <= 0 {
		panic("core: IEB capacity must be positive")
	}
	return &IEB{cap: capacity}
}

// Arm starts a lazy-invalidation epoch with an empty buffer.
func (b *IEB) Arm() {
	b.fifo = b.fifo[:0]
	b.armed = true
}

// Disarm ends the epoch, clearing the buffer.
func (b *IEB) Disarm() {
	b.fifo = b.fifo[:0]
	b.armed = false
}

// Armed reports whether a lazy-invalidation epoch is active.
func (b *IEB) Armed() bool { return b.armed }

// Contains reports whether line needs no invalidation on read.
func (b *IEB) Contains(line mem.Addr) bool {
	for _, a := range b.fifo {
		if a == line {
			return true
		}
	}
	return false
}

// Insert records line as refreshed, evicting FIFO if full; it reports
// whether an eviction happened.
func (b *IEB) Insert(line mem.Addr) (evicted bool) {
	b.Insertions++
	if len(b.fifo) == b.cap {
		copy(b.fifo, b.fifo[1:])
		b.fifo = b.fifo[:len(b.fifo)-1]
		evicted = true
		b.Evictions++
	}
	b.fifo = append(b.fifo, line)
	return evicted
}

// Len returns the number of tracked lines.
func (b *IEB) Len() int { return len(b.fifo) }
