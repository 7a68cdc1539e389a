// Package core implements the paper's primary contribution: the
// hardware-incoherent multiprocessor cache hierarchy and its management
// support. Caches never snoop and there is no directory; data moves between
// private and shared caches only under explicit writeback (WB) and
// self-invalidation (INV) instructions (Section III). The package provides:
//
//   - all WB/INV flavors: address ranges, whole-cache ALL forms, the
//     level-directed WB_L3/INV_L2 forms, and the level-adaptive
//     WB_CONS/INV_PROD forms of Section V;
//   - the Modified Entry Buffer (MEB) and Invalidated Entry Buffer (IEB)
//     of Section IV-B;
//   - the per-block ThreadMap table consulted by the level-adaptive
//     instructions (Section V-B).
//
// The hierarchy is functional: caches carry real word values, so a missing
// self-invalidation yields an observably stale read and a missing writeback
// yields an observably lost update. Timing follows the cost model described
// in DESIGN.md §3 on the shared topo.Machine.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Config sizes the hierarchy.
type Config struct {
	// L1 is each core's private cache; L2 is each block's shared cache
	// (one logical cache per block, physically banked across the block's
	// tiles for latency); L3 is the global shared cache, present only when
	// the machine has L3 banks.
	L1, L2, L3 cache.Config
	// MEBEntries and IEBEntries enable the entry buffers when nonzero.
	MEBEntries int
	IEBEntries int
	// Bloom enables Ashby-style Bloom-signature selective
	// self-invalidation with 256-bit, 2-hash signatures: cores accumulate
	// write signatures, publish them on release (SigPublish) and
	// acquirers invalidate selectively (INVSig). See bloom.go.
	Bloom bool
	// WriteThrough switches the L1s from write-back to write-through (the
	// VIPS-style self-downgrade alternative discussed in Section VIII):
	// every store immediately propagates its word to the shared L2, lines
	// never hold dirty words, and WB instructions become no-ops. Stores
	// are posted through the write buffer (no exposed latency) but each
	// pays word-granular network traffic; no coalescing is modeled.
	WriteThrough bool
}

// DefaultConfig returns the Table III cache sizes for machine m: 32 KB
// 4-way L1s, 128 KB × cores-per-block 8-way block L2s, and 4 MB × banks
// 8-way L3 when the machine is multi-block. The entry buffers are disabled;
// experiment configurations enable them explicitly (Table II's B+M, B+I,
// B+M+I).
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

// Hierarchy is one hardware-incoherent cache hierarchy instance.
type Hierarchy struct {
	m   *topo.Machine
	cfg Config

	backing *mem.Memory
	l1      []*cache.Cache // per core
	l2      []*cache.Cache // per block
	l3      *cache.Cache   // nil when the machine has no L3

	meb []*MEB // per core, nil entries when disabled
	ieb []*IEB // per core, nil entries when disabled

	// threadMap[t] is the block that thread t runs in — the per-L2
	// ThreadMap hardware table, filled by the runtime at spawn time.
	threadMap []int

	// bloom holds the optional Bloom-signature machinery (nil when
	// disabled).
	bloom *bloomState

	// fi is the optional fault-injection state (nil when no faults are
	// injected); delayed holds dirty words parked by delay-wb faults,
	// applied to backing memory only when Drain runs. See faults.go.
	fi      *faultinject.State
	delayed []parked

	// ctrs holds one protocol counter bag per block, so block-parallel
	// shards never contend on one map: an event raised on core c lands in
	// ctrs[BlockOf(c)] via h.ctr(c). Counters() merges the bags.
	ctrs []*stats.Counters

	// blockPar enables the ShardedHierarchy surface (parallel.go) once the
	// caller has opted in via SetBlockParallel.
	blockPar bool

	// rec plus the pre-resolved per-core occupancy tracks, set when the
	// observability recorder is attached (nil otherwise). See obs.go.
	rec      *obs.Recorder
	mebTrack []*obs.Track
	iebTrack []*obs.Track
}

// New builds a hierarchy on machine m with config cfg and a fresh backing
// memory. Threads are mapped identically to cores (thread t on core t).
func New(m *topo.Machine, cfg Config) *Hierarchy {
	h := &Hierarchy{
		m:       m,
		cfg:     cfg,
		backing: mem.NewMemory(),
		l1:      make([]*cache.Cache, m.NumCores()),
		l2:      make([]*cache.Cache, m.Blocks),
		meb:     make([]*MEB, m.NumCores()),
		ieb:     make([]*IEB, m.NumCores()),
		ctrs:    make([]*stats.Counters, m.Blocks),
	}
	for b := range h.ctrs {
		h.ctrs[b] = stats.NewCounters()
	}
	for c := range h.l1 {
		h.l1[c] = cache.New(cfg.L1)
		if cfg.MEBEntries > 0 {
			h.meb[c] = NewMEB(cfg.MEBEntries)
		}
		if cfg.IEBEntries > 0 {
			h.ieb[c] = NewIEB(cfg.IEBEntries)
		}
	}
	for b := range h.l2 {
		h.l2[b] = cache.New(cfg.L2)
	}
	if m.L3Banks > 0 {
		if cfg.L3.Bytes == 0 {
			panic("core: machine has L3 banks but config has no L3 cache")
		}
		h.l3 = cache.New(cfg.L3)
	}
	h.threadMap = make([]int, m.NumCores())
	for t := range h.threadMap {
		h.threadMap[t] = m.BlockOf(t)
	}
	if cfg.Bloom {
		h.bloom = newBloomState(m.NumCores())
	}
	return h
}

// Reset returns the hierarchy to the state New produced while keeping its
// storage, so callers that replay many short runs (the litmus explorer)
// pay for what each run touches rather than for a whole machine: caches
// and backing memory are cleared in place, MEBs and IEBs emptied with
// their counters zeroed, protocol counters and mesh traffic zeroed, the
// ThreadMap restored to the identity mapping, and parked delay-wb words
// dropped. The block-parallel opt-in is a mode, not run state, and
// persists.
//
// Reset refuses (panics on) a hierarchy with a fault plan, an
// observability recorder, or Bloom signatures attached: their state lives
// outside the hierarchy's storage and a reused machine would silently
// carry it into the next run.
func (h *Hierarchy) Reset() {
	switch {
	case h.fi != nil:
		panic("core: Reset of a hierarchy with a fault plan attached")
	case h.rec != nil:
		panic("core: Reset of a hierarchy with a recorder attached")
	case h.bloom != nil:
		panic("core: Reset of a hierarchy with Bloom signatures")
	}
	h.backing.Reset()
	for _, c := range h.l1 {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
	if h.l3 != nil {
		h.l3.Reset()
	}
	for _, b := range h.meb {
		if b != nil {
			b.Clear()
			b.Records, b.Overflows = 0, 0
		}
	}
	for _, b := range h.ieb {
		if b != nil {
			b.Disarm()
			b.Insertions, b.Evictions = 0, 0
		}
	}
	for t := range h.threadMap {
		h.threadMap[t] = h.m.BlockOf(t)
	}
	h.delayed = h.delayed[:0]
	for _, c := range h.ctrs {
		c.Reset()
	}
	h.m.Mesh.ResetTraffic()
}

// Machine returns the topology the hierarchy is built on.
func (h *Hierarchy) Machine() *topo.Machine { return h.m }

// Memory returns the backing store (authoritative only after Drain).
func (h *Hierarchy) Memory() *mem.Memory { return h.backing }

// ctr returns the counter bag events raised on core must land in.
func (h *Hierarchy) ctr(core int) *stats.Counters { return h.ctrs[h.m.BlockOf(core)] }

// Counters returns the protocol event counters, merged across the
// per-block bags. Callers must be quiescent with respect to shard
// execution (counters are read after Drain or between epochs).
func (h *Hierarchy) Counters() *stats.Counters {
	if len(h.ctrs) == 1 {
		return h.ctrs[0]
	}
	merged := stats.NewCounters()
	for _, c := range h.ctrs {
		merged.Merge(c)
	}
	return merged
}

// Traffic returns accumulated network traffic.
func (h *Hierarchy) Traffic() stats.Traffic { return h.m.Mesh.Traffic() }

// SyncCost implements the synchronization cost hook for the hwsync
// controller, accounting the request/grant message pair as sync traffic.
func (h *Hierarchy) SyncCost(core, id int) int64 {
	h.m.Mesh.Account(stats.SyncTraffic, 2)
	return h.m.SyncCost(core, id)
}

// MapThread records in the ThreadMap that thread t runs in block b. The
// runtime calls this when threads are spawned; tests use it to check that
// level-adaptive programs run unmodified under different mappings.
func (h *Hierarchy) MapThread(t, b int) {
	if b < 0 || b >= h.m.Blocks {
		panic(fmt.Sprintf("core: thread %d mapped to nonexistent block %d", t, b))
	}
	h.threadMap[t] = b
}

// sameBlock reports whether core's block equals peer thread's block per the
// ThreadMap — the hardware check behind the level-adaptive instructions.
func (h *Hierarchy) sameBlock(core, peer int) bool {
	if peer < 0 || peer >= len(h.threadMap) {
		return false
	}
	return h.m.BlockOf(core) == h.threadMap[peer]
}

// ---- Loads and stores -------------------------------------------------

// Load reads one word through the hierarchy, returning the value and the
// exposed latency. L1 hits are pipelined (zero exposed cycles). When the
// core's IEB is armed, the load follows the Section IV-B.2 protocol.
func (h *Hierarchy) Load(core int, a mem.Addr) (mem.Word, int64) {
	l1 := h.l1[core]
	line := mem.LineAddr(a)

	if b := h.ieb[core]; b != nil && b.Armed() {
		if name := iebFresh(b, l1, a); name != "" {
			h.ctr(core).Inc(name, 1)
		} else if h.fi != nil && h.fi.NextIEBLie() {
			// Injected fault: the IEB claims the line was already
			// refreshed this epoch; the stale copy survives.
			h.ctr(core).Inc("fault.ieb.lie", 1)
		} else {
			if b.Insert(line) {
				h.ctr(core).Inc("ieb.evictions", 1)
			}
			h.sampleIEB(core)
			h.ctr(core).Inc("ieb.insertions", 1)
			if l := l1.Peek(a); l != nil {
				// First read in the epoch: invalidate the potentially
				// stale copy (draining this core's own dirty words first,
				// so INV never loses updates) and refetch fresh below.
				if l.IsDirty() {
					h.wbDirtyWords(core, l, isa.LevelAuto)
				}
				l1.Invalidate(a)
				h.ctr(core).Inc("ieb.selfinv", 1)
			}
		}
	}

	if l := l1.Lookup(a); l != nil {
		return l.Words[mem.WordIndex(a)], 0
	}
	words, lat := h.fillL1(core, line)
	return words[mem.WordIndex(a)], lat
}

// iebFresh classifies a load of a under core's armed IEB b (l1 is the
// core's L1). It names the counter of a load that needs no refresh —
// "ieb.filtered" when the line was already refreshed this epoch,
// "ieb.dirtyhit" when this core wrote the word itself, so it is not
// stale — and returns "" for the line's first read in the epoch, which
// self-invalidates and refetches.
func iebFresh(b *IEB, l1 *cache.Cache, a mem.Addr) string {
	if b.Contains(mem.LineAddr(a)) {
		return "ieb.filtered"
	}
	if l := l1.Peek(a); l != nil && l.Dirty.Has(mem.WordIndex(a)) {
		return "ieb.dirtyhit"
	}
	return ""
}

// Store writes one word, write-allocating on a miss, and returns exposed
// latency. A clean→dirty word transition records the frame in the MEB.
// Under write-through the word goes straight to the shared L2 and the L1
// copy stays clean.
func (h *Hierarchy) Store(core int, a mem.Addr, v mem.Word) int64 {
	l1 := h.l1[core]
	var lat int64
	l := l1.Lookup(a)
	if l == nil {
		_, lat = h.fillL1(core, mem.LineAddr(a))
		l = l1.Peek(a)
	}
	if h.cfg.WriteThrough {
		i := mem.WordIndex(a)
		l.Words[i] = v
		var words [mem.WordsPerLine]mem.Word
		words[i] = v
		h.ctr(core).Inc("wt.stores", 1)
		h.noteBloomWrite(core, mem.LineAddr(a))
		h.mergeBelowL1(h.m.BlockOf(core), mem.LineAddr(a), &words, mem.Bit(i))
		return lat
	}
	h.storeL1(core, l, a, v)
	return lat
}

// storeL1 writes v into core's write-back L1 line l, which holds a: a
// clean→dirty word transition records the frame in the MEB and notes the
// line in the Bloom accumulator.
func (h *Hierarchy) storeL1(core int, l *cache.Line, a mem.Addr, v mem.Word) {
	i := mem.WordIndex(a)
	if !l.Dirty.Has(i) {
		if b := h.meb[core]; b != nil {
			f := h.l1[core].FrameOf(a)
			if h.fi != nil && h.fi.MEBOverCap(b.Len(), b.Has(f)) {
				// Injected fault: an undersized MEB silently discards the
				// record instead of entering the overflow state.
				h.fi.NoteMEBLost(mem.LineAddr(a))
				h.ctr(core).Inc("fault.meb.lost", 1)
			} else if b.Record(f) {
				h.ctr(core).Inc("meb.overflows", 1)
			}
			h.sampleMEB(core)
		}
		h.noteBloomWrite(core, mem.LineAddr(a))
	}
	l.Words[i] = v
	l.Dirty |= mem.Bit(i)
}

// Private executes core's cacheable load (kind isa.OpLoad) or store
// (isa.OpStore, writing v) when it provably touches only core's private
// state — its L1, MEB, IEB and Bloom accumulator — and reports true with
// the loaded value; the effect is exactly Load's or Store's. That is the
// case for an L1 hit, except for the IEB's first read of a line in an
// epoch (a self-invalidation and refetch) and for write-through stores
// (which update the shared L2). Otherwise, and whenever a fault plan or
// recorder is attached, Private changes nothing and reports false, and
// the op must go through Load or Store. No other core's operation reads
// or writes this state, so a private op gives the same value and the
// same state whenever it runs, as long as it runs in the core's program
// order; the engine's fast path relies on that.
func (h *Hierarchy) Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool) {
	if h.fi != nil || h.rec != nil {
		return 0, false
	}
	l1 := h.l1[core]
	switch kind {
	case isa.OpLoad:
		var name string
		if b := h.ieb[core]; b != nil && b.Armed() {
			if name = iebFresh(b, l1, a); name == "" {
				return 0, false
			}
		}
		l := l1.LookupHit(a)
		if l == nil {
			return 0, false
		}
		if name != "" {
			h.ctr(core).Inc(name, 1)
		}
		return l.Words[mem.WordIndex(a)], true
	case isa.OpStore:
		if h.cfg.WriteThrough {
			return 0, false
		}
		l := l1.LookupHit(a)
		if l == nil {
			return 0, false
		}
		h.storeL1(core, l, a, v)
		return 0, true
	}
	return 0, false
}

// PrivateOrdered reports false: no other core's op reads or writes the
// state a private op touches, so the engine may run one at any time in
// the core's program order.
func (h *Hierarchy) PrivateOrdered() bool { return false }

// fillL1 fetches a line into core's L1 from the shared levels, handling
// victim writeback, and returns the line data and exposed latency.
func (h *Hierarchy) fillL1(core int, line mem.Addr) ([mem.WordsPerLine]mem.Word, int64) {
	b := h.m.BlockOf(core)
	words, lat := h.readThroughL2(core, b, line)
	var victim cache.Line
	if _, evicted := h.l1[core].Insert(line, &words, cache.StateNone, &victim); evicted && victim.IsDirty() {
		// Victim writeback drains through the write buffer: traffic but no
		// exposed latency.
		h.mergeBelowL1(b, victim.Tag, &victim.Words, victim.Dirty)
		h.ctr(core).Inc("l1.evict.dirty", 1)
	}
	return words, lat
}

// readThroughL2 returns the line's data as seen from block b's L2,
// filling L2 from L3/memory on an L2 miss. Latency covers the L1-miss
// round trip to the L2 bank plus any deeper legs.
func (h *Hierarchy) readThroughL2(core, b int, line mem.Addr) ([mem.WordsPerLine]mem.Word, int64) {
	p := h.m.Params
	mesh := h.m.Mesh
	bank := h.m.L2BankNode(b, line)
	lat := p.L2RT + mesh.RTLatency(h.m.CoreNode(core), bank)
	// This leg can run on a block-parallel shard (L2-hit fills are
	// shard-local); route the flits to the shard's accumulator.
	mesh.AccountShard(b, stats.Linefill, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))
	if l2l := h.l2[b].Lookup(line); l2l != nil {
		return l2l.Words, lat
	}
	words, deeper := h.fillL2(b, line)
	return words, lat + deeper
}

// fillL2 fetches a line into block b's L2 from L3 or memory and returns
// its data plus the latency of the deeper legs.
func (h *Hierarchy) fillL2(b int, line mem.Addr) ([mem.WordsPerLine]mem.Word, int64) {
	p := h.m.Params
	mesh := h.m.Mesh
	bank := h.m.L2BankNode(b, line)
	var words [mem.WordsPerLine]mem.Word
	var lat int64
	if h.l3 != nil {
		l3n := h.m.L3Node(line)
		lat += p.L3RT + mesh.RTLatency(bank, l3n)
		mesh.Account(stats.Linefill, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))
		if l3l := h.l3.Lookup(line); l3l != nil {
			words = l3l.Words
		} else {
			lat += p.MemRT + mesh.RTLatency(l3n, h.m.MemNode(line))
			mesh.Account(stats.MemoryTraffic, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))
			h.backing.ReadLine(line, &words)
			var v3 cache.Line
			if _, evicted := h.l3.Insert(line, &words, cache.StateNone, &v3); evicted && v3.IsDirty() {
				h.writeMemory(v3.Tag, &v3.Words, v3.Dirty)
			}
		}
	} else {
		lat += p.MemRT + mesh.RTLatency(bank, h.m.MemNode(line))
		mesh.Account(stats.MemoryTraffic, noc.CtrlFlits()+noc.DataFlits(mem.LineBytes))
		h.backing.ReadLine(line, &words)
	}
	var victim cache.Line
	if _, evicted := h.l2[b].Insert(line, &words, cache.StateNone, &victim); evicted && victim.IsDirty() {
		h.mergeBelowL2(victim.Tag, &victim.Words, victim.Dirty)
		h.ctrs[b].Inc("l2.evict.dirty", 1)
	}
	return words, lat
}

// writeMemory pushes masked words to backing memory with memory traffic.
func (h *Hierarchy) writeMemory(line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	h.backing.WriteLine(line, words, mask)
	h.m.Mesh.Account(stats.MemoryTraffic, noc.DataFlits(mask.Count()*mem.WordBytes))
}

// mergeBelowL1 pushes masked dirty words from an L1 line into the block's
// L2 if present (marking them dirty there), else forwards them deeper
// (write-no-allocate below L1).
func (h *Hierarchy) mergeBelowL1(b int, line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	// Like the L2 read leg, this can run on a block-parallel shard (the
	// OpLocal classifier only admits writebacks whose lines hit the L2).
	h.m.Mesh.AccountShard(b, stats.Writeback, noc.DataFlits(mask.Count()*mem.WordBytes))
	if l2l := h.l2[b].Peek(line); l2l != nil {
		for i := 0; i < mem.WordsPerLine; i++ {
			if mask.Has(i) {
				l2l.Words[i] = words[i]
			}
		}
		l2l.Dirty |= mask
		return
	}
	h.mergeBelowL2NoTraffic(line, words, mask)
}

// mergeBelowL2 pushes masked dirty words from an L2 line into L3 if
// present (marking them dirty), else to memory.
func (h *Hierarchy) mergeBelowL2(line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	if h.l3 != nil {
		h.m.Mesh.Account(stats.Writeback, noc.DataFlits(mask.Count()*mem.WordBytes))
	}
	h.mergeBelowL2NoTraffic(line, words, mask)
}

func (h *Hierarchy) mergeBelowL2NoTraffic(line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	if h.l3 != nil {
		if l3l := h.l3.Peek(line); l3l != nil {
			for i := 0; i < mem.WordsPerLine; i++ {
				if mask.Has(i) {
					l3l.Words[i] = words[i]
				}
			}
			l3l.Dirty |= mask
			return
		}
	}
	h.writeMemory(line, words, mask)
}

// ---- Uncacheable accesses ---------------------------------------------

// LoadUncached reads a word directly from the on-chip shared storage,
// bypassing the private caches — the access mode of the synchronization
// variables and MPI buffers of Programming Model 1.
func (h *Hierarchy) LoadUncached(core int, a mem.Addr) (mem.Word, int64) {
	h.m.Mesh.Account(stats.SyncTraffic, noc.CtrlFlits()+noc.DataFlits(mem.WordBytes))
	return h.backing.ReadWord(a), h.uncachedRT(core, a)
}

// StoreUncached writes a word directly to the on-chip shared storage.
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

// ---- Epochs and verification ------------------------------------------

// EpochBoundary tells core's cache controller that a synchronization
// operation executed: the IEB is disarmed and cleared ("the IEB starts the
// epoch empty", Section IV-B.2). The MEB deliberately persists until the
// next WB ALL so that it always covers every line dirtied since the last
// full writeback (see MEB docs).
func (h *Hierarchy) EpochBoundary(core int) {
	if b := h.ieb[core]; b != nil {
		b.Disarm()
		h.sampleIEB(core)
	}
}

// Drain flushes every dirty word in every cache to backing memory, without
// timing or traffic, so tests can verify final program results. It leaves
// clean copies in place. Words parked by delay-wb faults land first, so
// data still cached (and later re-written) wins over the delayed copy.
func (h *Hierarchy) Drain() {
	h.applyDelayed()
	for c, l1 := range h.l1 {
		b := h.m.BlockOf(c)
		l1.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				if l2l := h.l2[b].Peek(l.Tag); l2l != nil {
					for i := 0; i < mem.WordsPerLine; i++ {
						if l.Dirty.Has(i) {
							l2l.Words[i] = l.Words[i]
						}
					}
					l2l.Dirty |= l.Dirty
				} else {
					h.drainToBelowL2(l.Tag, &l.Words, l.Dirty)
				}
				l.Dirty = 0
			}
		})
	}
	for _, l2 := range h.l2 {
		l2.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				h.drainToBelowL2(l.Tag, &l.Words, l.Dirty)
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

func (h *Hierarchy) drainToBelowL2(line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	if h.l3 != nil {
		if l3l := h.l3.Peek(line); l3l != nil {
			for i := 0; i < mem.WordsPerLine; i++ {
				if mask.Has(i) {
					l3l.Words[i] = words[i]
				}
			}
			l3l.Dirty |= mask
			return
		}
	}
	h.backing.WriteLine(line, words, mask)
}
