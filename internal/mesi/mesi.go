// Package mesi implements the paper's hardware-coherent baseline (HCC): a
// full-mapped directory-based MESI protocol. On the single-block machine
// the directory lives with the shared L2 and tracks per-core presence; on
// the multi-block machine the protocol is hierarchical (Section VI): the L3
// directory tracks per-block presence and each block's L2 directory tracks
// per-core presence, exactly the organization costed in Section VII-A.
//
// The hierarchy is inclusive (a line cached in an L1 is present in its
// block's L2, and a line in any L2 is present in the L3), which is what a
// directory embedded in the shared caches requires. Transactions are
// resolved atomically: each load or store computes its full latency (bank
// round trips, owner forwarding, invalidation legs) and traffic (line
// fills, full-line writebacks, invalidation requests and acks) in one call.
// Clean L1 evictions are silent, so directory presence bits can go stale;
// stale entries cost spurious (immediately acknowledged) invalidations,
// as in a real full-map directory without replacement hints.
package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/topo"
)

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirOwned // one cache above holds it E or M
)

// dirEntry is one full-map directory entry: presence bits over the caches
// one level up plus the owner for dirOwned lines.
type dirEntry struct {
	state    dirState
	presence uint64
	owner    int
	// migrated marks that the current owner received the line through a
	// migratory grant; noMigrate disables the heuristic for this line
	// after a misprediction (the grantee never wrote), so read-shared
	// data does not ping-pong. This is the standard adaptive migratory
	// protocol (Cox/Fowler, Stenström et al.).
	migrated  bool
	noMigrate bool
}

func (e *dirEntry) clear(i int)    { e.presence &^= 1 << uint(i) }
func (e *dirEntry) set(i int)      { e.presence |= 1 << uint(i) }
func (e *dirEntry) has(i int) bool { return e.presence&(1<<uint(i)) != 0 }

// Config sizes the coherent hierarchy; identical cache geometry to the
// incoherent one so comparisons are apples-to-apples.
type Config struct {
	L1, L2, L3 cache.Config
}

// DefaultConfig returns Table III cache sizes for machine m.
func DefaultConfig(m *topo.Machine) Config {
	cfg := Config{
		L1: cache.Config{Bytes: 32 << 10, Ways: 4},
		L2: cache.Config{Bytes: (128 << 10) * m.CoresPerBlock, Ways: 8},
	}
	if m.L3Banks > 0 {
		cfg.L3 = cache.Config{Bytes: (4 << 20) * m.L3Banks, Ways: 8}
	}
	return cfg
}

// Hierarchy is one hardware-coherent MESI hierarchy.
type Hierarchy struct {
	m       *topo.Machine
	backing *mem.Memory
	l1      []*cache.Cache
	l2      []*cache.Cache
	l3      *cache.Cache

	l2dir  []*dirTable // per block: line -> per-core presence (core index within block)
	l3dirs []*dirTable // per L3 bank: line -> per-block presence

	ctr *stats.Counters
}

// New builds a coherent hierarchy on machine m.
func New(m *topo.Machine, cfg Config) *Hierarchy {
	h := &Hierarchy{
		m:       m,
		backing: mem.NewMemory(),
		l1:      make([]*cache.Cache, m.NumCores()),
		l2:      make([]*cache.Cache, m.Blocks),
		l2dir:   make([]*dirTable, m.Blocks),
		ctr:     stats.NewCounters(),
	}
	for c := range h.l1 {
		h.l1[c] = cache.New(cfg.L1)
	}
	for b := range h.l2 {
		h.l2[b] = cache.New(cfg.L2)
		h.l2dir[b] = newDirTable()
	}
	if m.L3Banks > 0 {
		if cfg.L3.Bytes == 0 {
			panic("mesi: machine has L3 banks but config has no L3 cache")
		}
		if m.Blocks > 64 {
			// The L3 directory's presence field is a uint64 over blocks;
			// a larger machine would silently shift bits into oblivion.
			panic(fmt.Sprintf("mesi: %d blocks exceed the 64-bit directory presence field", m.Blocks))
		}
		h.l3 = cache.New(cfg.L3)
		// One directory table per L3 bank, mirroring the physical banking:
		// lines hash to banks, so each table stays small and bank lookups
		// never touch another bank's map.
		h.l3dirs = make([]*dirTable, m.L3Banks)
		for i := range h.l3dirs {
			h.l3dirs[i] = newDirTable()
		}
	}
	if m.CoresPerBlock > 64 {
		panic(fmt.Sprintf("mesi: %d cores per block exceed the 64-bit directory presence field", m.CoresPerBlock))
	}
	return h
}

// Machine returns the topology.
func (h *Hierarchy) Machine() *topo.Machine { return h.m }

// Memory returns the backing store (authoritative after Drain).
func (h *Hierarchy) Memory() *mem.Memory { return h.backing }

// Counters returns protocol event counters.
func (h *Hierarchy) Counters() *stats.Counters { return h.ctr }

// Traffic returns accumulated flit counts.
func (h *Hierarchy) Traffic() stats.Traffic { return h.m.Mesh.Traffic() }

// SyncCost is the synchronization cost hook (identical to the incoherent
// machine's: the sync hardware is the same in both designs).
func (h *Hierarchy) SyncCost(core, id int) int64 {
	h.m.Mesh.Account(stats.SyncTraffic, 2)
	return h.m.SyncCost(core, id)
}

func (h *Hierarchy) coreInBlock(core int) int { return core % h.m.CoresPerBlock }

func (h *Hierarchy) dirL2(b int, line mem.Addr) *dirEntry {
	return h.l2dir[b].getOrCreate(line)
}

func (h *Hierarchy) dirL3(line mem.Addr) *dirEntry {
	return h.dirTableL3(line).getOrCreate(line)
}

// dirTableL3 returns the directory table of the L3 bank that owns line.
func (h *Hierarchy) dirTableL3(line mem.Addr) *dirTable {
	return h.l3dirs[h.m.L3BankOf(line)]
}

// ---- Core-facing operations -------------------------------------------

// Load performs a coherent read, returning the value and exposed latency.
func (h *Hierarchy) Load(core int, a mem.Addr) (mem.Word, int64) {
	line := mem.LineAddr(a)
	l1 := h.l1[core]
	if l := l1.Lookup(a); l != nil && l.State != cache.Invalid {
		return l.Words[mem.WordIndex(a)], 0
	}
	lat := h.fetchIntoL1(core, line, false)
	l := l1.Peek(a)
	return l.Words[mem.WordIndex(a)], lat
}

// Store performs a coherent write, returning exposed latency.
func (h *Hierarchy) Store(core int, a mem.Addr, v mem.Word) int64 {
	line := mem.LineAddr(a)
	l1 := h.l1[core]
	var lat int64
	l := l1.Lookup(a)
	switch {
	case l != nil && (l.State == cache.Modified || l.State == cache.Exclusive):
		// Hit in M, or the silent E->M upgrade: the block directory
		// already names this core as owner (see CheckInvariants).
	case l != nil && l.State == cache.Shared:
		lat = h.upgradeToM(core, line)
		l = l1.Peek(a)
	default:
		lat = h.fetchIntoL1(core, line, true)
		l = l1.Peek(a)
	}
	writeL1(l, a, v)
	return lat
}

// writeL1 writes v into core's L1 copy l of a, which now holds the line
// in M.
func writeL1(l *cache.Line, a mem.Addr, v mem.Word) {
	l.Words[mem.WordIndex(a)] = v
	l.State = cache.Modified
	l.Dirty = mem.FullMask // HCC writebacks are full lines
}

// Private runs core's cacheable load (kind isa.OpLoad) or store
// (isa.OpStore of v) when it is an L1 hit that needs no directory work:
// a load of a line in M, E or S, or a store to a line in M or E (the
// silent E->M upgrade). It then has exactly Load's or Store's effect —
// LRU touch, hit count, state, data — and reports true. On a miss, or a
// store to an S line (an upgrade), it changes nothing and reports false.
//
// Other cores' ops invalidate and downgrade L1 copies, so a hit is only
// a hit at its place in the global (clock, ID) order: PrivateOrdered is
// true, and the engine runs a private op only where the scheduler would
// have run it next. Nothing else about a hit depends on the order. The
// migratory-sharing detector records nothing on a hit: it reads the
// owner's L1 state when a forward happens, and forwards, being misses,
// still run through the scheduler in (clock, ID) order.
func (h *Hierarchy) Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool) {
	l1 := h.l1[core]
	// Read the state before LookupHit touches LRU or counts a hit.
	l := l1.Peek(a)
	if l == nil {
		return 0, false
	}
	switch {
	case kind == isa.OpLoad && l.State != cache.Invalid:
		l1.LookupHit(a)
		return l.Words[mem.WordIndex(a)], true
	case kind == isa.OpStore && (l.State == cache.Modified || l.State == cache.Exclusive):
		l1.LookupHit(a)
		writeL1(l, a, v)
		return 0, true
	}
	return 0, false
}

// PrivateOrdered reports true: a private op's outcome depends on what
// other cores did before it (see Private).
func (h *Hierarchy) PrivateOrdered() bool { return true }

// fetchIntoL1 brings a line into core's L1 with read (S/E) or write (M)
// rights, performing all directory work, and returns the latency.
func (h *Hierarchy) fetchIntoL1(core int, line mem.Addr, excl bool) int64 {
	b := h.m.BlockOf(core)
	p := h.m.Params
	mesh := h.m.Mesh
	bank := h.m.L2BankNode(b, line)

	lat := p.L2RT + mesh.RTLatency(h.m.CoreNode(core), bank)
	mesh.Account(stats.Linefill, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))

	// Ensure the block's L2 has the line with sufficient block-level
	// rights (inclusive hierarchy).
	lat += h.ensureL2(b, line, excl)
	l2l := h.l2[b].Peek(line)
	e := h.dirL2(b, line)
	ci := h.coreInBlock(core)

	if e.state == dirOwned && e.owner != ci {
		// Another core in the block holds it E or M: forward and downgrade
		// (GetS), invalidate (GetX), or — when the copy is dirty and the
		// request is a read — migrate ownership (the classic migratory-
		// sharing optimization: a read of freshly written data predicts a
		// read-modify-write chain, so granting exclusivity saves the
		// follow-up upgrade).
		ownerCore := b*h.m.CoresPerBlock + e.owner
		lat += mesh.RTLatency(bank, h.m.CoreNode(ownerCore)) + p.L1RT
		h.ctr.Inc("forwards", 1)
		migratory := false
		if ol := h.l1[ownerCore].Peek(line); ol != nil && ol.State != cache.Invalid {
			if ol.State == cache.Modified {
				l2l.Words = ol.Words
				l2l.Dirty = mem.FullMask
				mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
				migratory = !excl && !e.noMigrate
			} else if e.migrated {
				// The migratory grantee never wrote: misprediction.
				// Disable the heuristic for this line.
				e.noMigrate = true
			}
			if excl || migratory {
				h.l1[ownerCore].Invalidate(line)
				mesh.Account(stats.Invalidation, 2*noc.CtrlFlits())
				h.ctr.Inc("invalidations", 1)
				if migratory {
					h.ctr.Inc("migrations", 1)
				}
			} else {
				ol.State = cache.Shared
			}
		}
		if excl || migratory {
			e.clear(e.owner)
			e.state = dirUncached
		} else {
			e.state = dirShared
		}
		e.migrated = migratory
	}

	if excl && e.state == dirShared {
		lat += h.invalidateBlockSharers(b, line, ci)
	}

	// Deliver data and set states. An Exclusive grant is only safe when
	// this block is the sole holder machine-wide: a later silent E->M
	// upgrade must not leave stale copies in other blocks.
	var st cache.State
	if excl {
		st = cache.Modified
		e.state = dirOwned
		e.owner = ci
		e.presence = 0
	} else if e.presence == 0 && e.state != dirOwned && h.blockSoleHolder(b, line) {
		st = cache.Exclusive
		e.state = dirOwned
		e.owner = ci
	} else {
		st = cache.Shared
		e.state = dirShared
	}
	e.set(ci)

	words := l2l.Words
	var victim cache.Line
	if _, evicted := h.l1[core].Insert(line, &words, st, &victim); evicted {
		h.l1VictimWriteback(core, &victim)
	}
	return lat
}

// upgradeToM converts core's S copy to M, invalidating other sharers.
func (h *Hierarchy) upgradeToM(core int, line mem.Addr) int64 {
	b := h.m.BlockOf(core)
	p := h.m.Params
	mesh := h.m.Mesh
	bank := h.m.L2BankNode(b, line)
	ci := h.coreInBlock(core)
	lat := p.L2RT + mesh.RTLatency(h.m.CoreNode(core), bank)
	mesh.Account(stats.Invalidation, noc.CtrlFlits()) // upgrade request
	h.ctr.Inc("upgrades", 1)

	// Block-level rights: other blocks' copies must go too.
	lat += h.ensureL2(b, line, true)

	lat += h.invalidateBlockSharers(b, line, ci)
	e := h.dirL2(b, line)
	e.state = dirOwned
	e.owner = ci
	e.presence = 0
	e.set(ci)
	if l := h.l1[core].Peek(line); l != nil {
		l.State = cache.Modified
	}
	return lat
}

// invalidateBlockSharers sends invalidations to every L1 in block b that
// the directory lists for line, except core index keep. Returns the
// latency of the farthest leg.
func (h *Hierarchy) invalidateBlockSharers(b int, line mem.Addr, keep int) int64 {
	e := h.dirL2(b, line)
	mesh := h.m.Mesh
	bank := h.m.L2BankNode(b, line)
	var worst int64
	forEachSharerMask(e.presence, func(s int) {
		if s == keep {
			return
		}
		core := b*h.m.CoresPerBlock + s
		leg := mesh.RTLatency(bank, h.m.CoreNode(core))
		if leg > worst {
			worst = leg
		}
		mesh.Account(stats.Invalidation, 2*noc.CtrlFlits()) // inv + ack
		h.ctr.Inc("invalidations", 1)
		if l := h.l1[core].Peek(line); l != nil {
			if l.State == cache.Modified {
				// Possible under stale presence after silent transitions:
				// save the data.
				if l2l := h.l2[b].Peek(line); l2l != nil {
					l2l.Words = l.Words
					l2l.Dirty = mem.FullMask
				}
				mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
			}
			h.l1[core].Invalidate(line)
		}
		e.clear(s)
	})
	keepHad := e.has(keep)
	e.presence = 0
	if keepHad {
		e.set(keep)
	}
	return worst
}

// l1VictimWriteback handles an evicted L1 line: M lines write data back to
// the block's L2; clean lines are dropped silently (presence goes stale).
func (h *Hierarchy) l1VictimWriteback(core int, victim *cache.Line) {
	b := h.m.BlockOf(core)
	e := h.dirL2(b, victim.Tag)
	if victim.State == cache.Modified {
		if l2l := h.l2[b].Peek(victim.Tag); l2l != nil {
			l2l.Words = victim.Words
			l2l.Dirty = mem.FullMask
		}
		h.m.Mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
		h.ctr.Inc("l1.evict.dirty", 1)
		e.clear(h.coreInBlock(core))
		if e.state == dirOwned && e.owner == h.coreInBlock(core) {
			e.state = dirUncached
			if e.presence != 0 {
				e.state = dirShared
			}
		}
	}
	// Clean evictions are silent: presence bits go stale.
	// If the writeback dropped the last presence bit, compact the entry.
	h.l2dir[b].freeIfZero(victim.Tag)
}

// blockSoleHolder reports whether block b is the only block holding line
// (always true on the single-block machine).
func (h *Hierarchy) blockSoleHolder(b int, line mem.Addr) bool {
	if h.l3 == nil {
		return true
	}
	e3 := h.dirL3(line)
	return e3.state == dirOwned && e3.owner == b
}

// ---- Block level (L3 directory) ----------------------------------------

// ensureL2 guarantees block b's L2 holds line with read or exclusive
// block-level rights, fetching from L3/memory and doing inter-block
// coherence work as needed. Returns added latency.
func (h *Hierarchy) ensureL2(b int, line mem.Addr, excl bool) int64 {
	p := h.m.Params
	mesh := h.m.Mesh
	bank := h.m.L2BankNode(b, line)
	l2l := h.l2[b].Peek(line)

	if h.l3 == nil {
		// Single-block machine: the L2 is the last level.
		if l2l != nil {
			return 0
		}
		lat := p.MemRT + mesh.RTLatency(bank, h.m.MemNode(line))
		mesh.Account(stats.MemoryTraffic, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))
		var words [mem.WordsPerLine]mem.Word
		h.backing.ReadLine(line, &words)
		h.insertL2(b, line, &words)
		return lat
	}

	e3 := h.dirL3(line)
	bHas := l2l != nil && e3.has(b)
	rightsOK := bHas && (!excl || (e3.state == dirOwned && e3.owner == b))
	if rightsOK {
		return 0
	}

	l3n := h.m.L3Node(line)
	lat := p.L3RT + mesh.RTLatency(bank, l3n)
	mesh.Account(stats.Linefill, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))

	// Bring the line into the L3 if absent.
	l3l := h.l3.Peek(line)
	if l3l == nil {
		lat += p.MemRT + mesh.RTLatency(l3n, h.m.MemNode(line))
		mesh.Account(stats.MemoryTraffic, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))
		var words [mem.WordsPerLine]mem.Word
		h.backing.ReadLine(line, &words)
		var victim cache.Line
		if _, evicted := h.l3.Insert(line, &words, cache.StateNone, &victim); evicted {
			h.recallL3Victim(&victim)
		}
		l3l = h.l3.Peek(line)
	}

	// Owned in another block: recall its data. A read recall of dirty
	// data migrates block-level ownership (migratory-sharing), saving the
	// later cross-block upgrade of a read-modify-write chain.
	if e3.state == dirOwned && e3.owner != b {
		dirty := h.blockHoldsDirty(e3.owner, line)
		if e3.migrated && !dirty {
			e3.noMigrate = true // misprediction: grantee block never wrote
		}
		migratory := !excl && dirty && !e3.noMigrate
		lat += h.recallBlock(e3.owner, line, excl || migratory)
		if excl || migratory {
			e3.clear(e3.owner)
			e3.state = dirUncached
			if migratory {
				h.ctr.Inc("migrations", 1)
			}
		} else {
			e3.state = dirShared
		}
		e3.migrated = migratory
	}
	if excl && e3.state == dirShared {
		lat += h.invalidateSharerBlocks(line, b)
	}

	// Deliver to block b.
	if l2l == nil {
		words := l3l.Words
		h.insertL2(b, line, &words)
		l2l = h.l2[b].Peek(line)
	} else {
		l2l.Words = l3l.Words
		l2l.Dirty = 0
	}
	if excl {
		e3.state = dirOwned
		e3.owner = b
		e3.presence = 0
	} else if e3.presence == 0 && e3.state != dirOwned {
		e3.state = dirOwned
		e3.owner = b
	} else {
		e3.state = dirShared
	}
	e3.set(b)
	return lat
}

// insertL2 installs a line in block b's L2, handling the inclusive victim.
func (h *Hierarchy) insertL2(b int, line mem.Addr, words *[mem.WordsPerLine]mem.Word) {
	var victim cache.Line
	if _, evicted := h.l2[b].Insert(line, words, cache.StateNone, &victim); evicted {
		h.evictL2Line(b, &victim)
	}
}

// evictL2Line handles an L2 eviction: invalidate the block's L1 copies
// (inclusivity), then write dirty data down.
func (h *Hierarchy) evictL2Line(b int, victim *cache.Line) {
	e := h.dirL2(b, victim.Tag)
	words := victim.Words
	dirty := victim.IsDirty()
	forEachSharerMask(e.presence, func(s int) {
		core := b*h.m.CoresPerBlock + s
		if l := h.l1[core].Peek(victim.Tag); l != nil {
			if l.State == cache.Modified {
				words = l.Words
				dirty = true
				h.m.Mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
			}
			h.l1[core].Invalidate(victim.Tag)
			h.m.Mesh.Account(stats.Invalidation, 2*noc.CtrlFlits())
			h.ctr.Inc("invalidations", 1)
		}
	})
	h.l2dir[b].del(victim.Tag)
	if dirty {
		h.writeBelowL2(victim.Tag, &words)
	}
	if h.l3 != nil {
		// Block no longer holds the line.
		e3 := h.dirL3(victim.Tag)
		e3.clear(b)
		if e3.state == dirOwned && e3.owner == b {
			e3.state = dirShared
			if e3.presence == 0 {
				e3.state = dirUncached
			}
		}
		h.dirTableL3(victim.Tag).freeIfZero(victim.Tag)
	}
	h.ctr.Inc("l2.evictions", 1)
}

// writeBelowL2 pushes a full line's data to L3 (marking dirty) or memory.
func (h *Hierarchy) writeBelowL2(line mem.Addr, words *[mem.WordsPerLine]mem.Word) {
	if h.l3 != nil {
		if l3l := h.l3.Peek(line); l3l != nil {
			l3l.Words = *words
			l3l.Dirty = mem.FullMask
			h.m.Mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
			return
		}
	}
	h.backing.WriteLine(line, words, mem.FullMask)
	h.m.Mesh.Account(stats.MemoryTraffic, noc.DataFlits(mem.LineBytes))
}

// blockHoldsDirty reports whether block b holds modified data for line
// (in its L2 copy or in one of its L1s).
func (h *Hierarchy) blockHoldsDirty(b int, line mem.Addr) bool {
	if l2l := h.l2[b].Peek(line); l2l != nil && l2l.IsDirty() {
		return true
	}
	e := h.dirL2(b, line)
	if e.state != dirOwned {
		return false
	}
	ownerCore := b*h.m.CoresPerBlock + e.owner
	ol := h.l1[ownerCore].Peek(line)
	return ol != nil && ol.State == cache.Modified
}

// recallBlock pulls the up-to-date copy of line out of block b (which owns
// it at the L3 directory), downgrading (shared) or invalidating (excl) the
// block's copies, and refreshes the L3 data. Returns the leg latency.
func (h *Hierarchy) recallBlock(b int, line mem.Addr, excl bool) int64 {
	p := h.m.Params
	mesh := h.m.Mesh
	l3n := h.m.L3Node(line)
	bank := h.m.L2BankNode(b, line)
	lat := mesh.RTLatency(l3n, bank) + p.L2RT
	h.ctr.Inc("block.recalls", 1)

	l2l := h.l2[b].Peek(line)
	e := h.dirL2(b, line)
	// First pull any dirty L1 copy into the block's L2.
	if e.state == dirOwned {
		ownerCore := b*h.m.CoresPerBlock + e.owner
		if ol := h.l1[ownerCore].Peek(line); ol != nil && ol.State == cache.Modified && l2l != nil {
			l2l.Words = ol.Words
			l2l.Dirty = mem.FullMask
			mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
			lat += mesh.RTLatency(bank, h.m.CoreNode(ownerCore)) + p.L1RT
		}
	}
	if excl {
		// Invalidate every L1 copy in the block, then the L2 copy.
		forEachSharerMask(e.presence, func(s int) {
			core := b*h.m.CoresPerBlock + s
			if h.l1[core].Invalidate(line) {
				mesh.Account(stats.Invalidation, 2*noc.CtrlFlits())
				h.ctr.Inc("invalidations", 1)
			}
		})
		h.l2dir[b].del(line)
	} else {
		forEachSharerMask(e.presence, func(s int) {
			core := b*h.m.CoresPerBlock + s
			if l := h.l1[core].Peek(line); l != nil && l.State != cache.Shared {
				l.State = cache.Shared
			}
		})
		e.state = dirShared
	}
	// Refresh L3 with the block's data.
	if l2l != nil {
		if l3l := h.l3.Peek(line); l3l != nil && l2l.IsDirty() {
			l3l.Words = l2l.Words
			l3l.Dirty = mem.FullMask
			mesh.Account(stats.Writeback, noc.DataFlits(mem.LineBytes))
		}
		if excl {
			h.l2[b].Invalidate(line)
		} else {
			l2l.Dirty = 0
		}
	}
	return lat
}

// invalidateSharerBlocks invalidates line from every block except keep.
func (h *Hierarchy) invalidateSharerBlocks(line mem.Addr, keep int) int64 {
	e3 := h.dirL3(line)
	mesh := h.m.Mesh
	l3n := h.m.L3Node(line)
	var worst int64
	forEachSharerMask(e3.presence, func(b int) {
		if b == keep {
			return
		}
		leg := mesh.RTLatency(l3n, h.m.L2BankNode(b, line))
		if leg > worst {
			worst = leg
		}
		mesh.Account(stats.Invalidation, 2*noc.CtrlFlits())
		h.ctr.Inc("invalidations", 1)
		// Invalidate the block's L1 copies and its L2 copy.
		eb := h.dirL2(b, line)
		forEachSharerMask(eb.presence, func(s int) {
			core := b*h.m.CoresPerBlock + s
			h.l1[core].Invalidate(line)
		})
		h.l2dir[b].del(line)
		h.l2[b].Invalidate(line)
		e3.clear(b)
	})
	keepHad := e3.has(keep)
	e3.presence = 0
	if keepHad {
		e3.set(keep)
	}
	return worst
}

// recallL3Victim evicts a line from the L3, recalling it from every block
// (inclusive hierarchy) and writing dirty data to memory.
func (h *Hierarchy) recallL3Victim(victim *cache.Line) {
	e3 := h.dirL3(victim.Tag)
	words := victim.Words
	dirty := victim.IsDirty()
	forEachSharerMask(e3.presence, func(b int) {
		eb := h.dirL2(b, victim.Tag)
		forEachSharerMask(eb.presence, func(s int) {
			core := b*h.m.CoresPerBlock + s
			if l := h.l1[core].Peek(victim.Tag); l != nil {
				if l.State == cache.Modified {
					words = l.Words
					dirty = true
				}
				h.l1[core].Invalidate(victim.Tag)
				h.m.Mesh.Account(stats.Invalidation, 2*noc.CtrlFlits())
				h.ctr.Inc("invalidations", 1)
			}
		})
		if l2l := h.l2[b].Peek(victim.Tag); l2l != nil {
			if l2l.IsDirty() {
				words = l2l.Words
				dirty = true
			}
			h.l2[b].Invalidate(victim.Tag)
		}
		h.l2dir[b].del(victim.Tag)
	})
	h.dirTableL3(victim.Tag).del(victim.Tag)
	if dirty {
		h.backing.WriteLine(victim.Tag, &words, mem.FullMask)
		h.m.Mesh.Account(stats.MemoryTraffic, noc.DataFlits(mem.LineBytes))
	}
	h.ctr.Inc("l3.evictions", 1)
}

// ---- Uncacheable, epochs, drain ----------------------------------------

// LoadUncached mirrors the incoherent hierarchy's uncacheable access.
func (h *Hierarchy) LoadUncached(core int, a mem.Addr) (mem.Word, int64) {
	h.m.Mesh.Account(stats.SyncTraffic, noc.CtrlFlits()+noc.DataFlits(mem.WordBytes))
	return h.backing.ReadWord(a), h.uncachedRT(core, a)
}

// StoreUncached mirrors the incoherent hierarchy's uncacheable access.
func (h *Hierarchy) StoreUncached(core int, a mem.Addr, v mem.Word) int64 {
	h.m.Mesh.Account(stats.SyncTraffic, noc.DataFlits(mem.WordBytes))
	h.backing.WriteWord(a, v)
	return h.uncachedRT(core, a)
}

func (h *Hierarchy) uncachedRT(core int, a mem.Addr) int64 {
	p := h.m.Params
	line := mem.LineAddr(a)
	if h.l3 != nil {
		return p.L3RT + h.m.Mesh.RTLatency(h.m.CoreNode(core), h.m.L3Node(line))
	}
	b := h.m.BlockOf(core)
	return p.L2RT + h.m.Mesh.RTLatency(h.m.CoreNode(core), h.m.L2BankNode(b, line))
}

// EpochBoundary is a no-op: hardware coherence needs no epoch management.
func (h *Hierarchy) EpochBoundary(int) {}

// Drain flushes all modified data to backing memory for verification.
func (h *Hierarchy) Drain() {
	for c, l1 := range h.l1 {
		b := h.m.BlockOf(c)
		l1.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.State == cache.Modified {
				if l2l := h.l2[b].Peek(l.Tag); l2l != nil {
					l2l.Words = l.Words
					l2l.Dirty = mem.FullMask
				} else {
					h.backing.WriteLine(l.Tag, &l.Words, mem.FullMask)
				}
				l.State = cache.Shared
			}
		})
	}
	for _, l2 := range h.l2 {
		l2.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				if h.l3 != nil {
					if l3l := h.l3.Peek(l.Tag); l3l != nil {
						l3l.Words = l.Words
						l3l.Dirty = mem.FullMask
						l.Dirty = 0
						return
					}
				}
				h.backing.WriteLine(l.Tag, &l.Words, mem.FullMask)
				l.Dirty = 0
			}
		})
	}
	if h.l3 != nil {
		h.l3.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				h.backing.WriteLine(l.Tag, &l.Words, l.Dirty)
				l.Dirty = 0
			}
		})
	}
}

// CheckInvariants verifies the single-writer/multiple-reader, inclusivity
// and ownership invariants, returning an error describing the first
// violation. Tests call it after operation sequences. Ownership: every
// L1 line in M or E has a block directory entry in dirOwned naming its
// core as owner, which is why a store hit need not write the owner.
func (h *Hierarchy) CheckInvariants() error {
	for b := 0; b < h.m.Blocks; b++ {
		seen := make(map[mem.Addr][]int)
		for ci := 0; ci < h.m.CoresPerBlock; ci++ {
			core := b*h.m.CoresPerBlock + ci
			var err error
			h.l1[core].ForEachValid(func(_ cache.FrameID, l *cache.Line) {
				if err != nil {
					return
				}
				if h.l2[b].Peek(l.Tag) == nil {
					err = fmt.Errorf("inclusivity: core %d holds %#x absent from block %d L2", core, uint32(l.Tag), b)
					return
				}
				if l.State == cache.Modified || l.State == cache.Exclusive {
					seen[l.Tag] = append(seen[l.Tag], core)
					if e := h.l2dir[b].lookup(l.Tag); e == nil || e.state != dirOwned || e.owner != ci {
						err = fmt.Errorf("ownership: core %d holds %#x in %v but block %d's directory entry is %+v",
							core, uint32(l.Tag), l.State, b, e)
					}
				}
			})
			if err != nil {
				return err
			}
		}
		for line, owners := range seen {
			if len(owners) > 1 {
				return fmt.Errorf("SWMR: line %#x owned M/E by cores %v", uint32(line), owners)
			}
			// No S copy may coexist with an M/E copy in the same block.
			for ci := 0; ci < h.m.CoresPerBlock; ci++ {
				core := b*h.m.CoresPerBlock + ci
				if core == owners[0] {
					continue
				}
				if l := h.l1[core].Peek(line); l != nil && l.State != cache.Invalid {
					return fmt.Errorf("SWMR: line %#x owned by core %d but also valid (%v) in core %d",
						uint32(line), owners[0], l.State, core)
				}
			}
		}
		if h.l3 != nil {
			var err error
			h.l2[b].ForEachValid(func(_ cache.FrameID, l *cache.Line) {
				if err == nil && h.l3.Peek(l.Tag) == nil {
					err = fmt.Errorf("inclusivity: block %d holds %#x absent from L3", b, uint32(l.Tag))
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
