// Package levels holds what the hardware-incoherent hierarchy (package
// core) and the MESI baseline (package mesi) have in common: the cache
// geometry, the backing memory and the per-core L1s, per-block L2s and
// global L3 built from it, the uncached-access and synchronization cost
// model, the cache and memory metrics, and the cache walk of their state
// fingerprints. Both hierarchies embed Levels by value, so they differ
// only in their protocol code and the comparison of Figures 9–12 runs
// the two protocols on the same machine by construction.
package levels

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Config sizes the cache levels.
type Config struct {
	// L1 is each core's private cache; L2 is each block's shared cache
	// (one logical cache per block, physically banked across the block's
	// tiles for latency); L3 is the global shared cache, present only when
	// the machine has L3 banks.
	L1, L2, L3 cache.Config
}

// DefaultConfig returns the Table III cache sizes for machine m: 32 KB
// 4-way L1s, 128 KB × cores-per-block 8-way block L2s, and 4 MB × banks
// 8-way L3 when the machine is multi-block.
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

// Levels is the storage of one hierarchy on machine M.
type Levels struct {
	M       *topo.Machine
	Backing *mem.Memory
	L1      []*cache.Cache // per core
	L2      []*cache.Cache // per block
	L3      *cache.Cache   // nil when the machine has no L3
}

// New builds fresh, empty levels on machine m.
func New(m *topo.Machine, cfg Config) Levels {
	lv := Levels{
		M:       m,
		Backing: mem.NewMemory(),
		L1:      make([]*cache.Cache, m.NumCores()),
		L2:      make([]*cache.Cache, m.Blocks),
	}
	for c := range lv.L1 {
		lv.L1[c] = cache.New(cfg.L1)
	}
	for b := range lv.L2 {
		lv.L2[b] = cache.New(cfg.L2)
	}
	if m.L3Banks > 0 {
		if cfg.L3.Bytes == 0 {
			panic("levels: machine has L3 banks but config has no L3 cache")
		}
		lv.L3 = cache.New(cfg.L3)
	}
	return lv
}

// Machine returns the topology the hierarchy is built on.
func (lv *Levels) Machine() *topo.Machine { return lv.M }

// Memory returns the backing store (authoritative only after Drain).
func (lv *Levels) Memory() *mem.Memory { return lv.Backing }

// Traffic returns accumulated network traffic.
func (lv *Levels) Traffic() stats.Traffic { return lv.M.Mesh.Traffic() }

// SyncCost implements the synchronization cost hook for the hwsync
// controller, accounting the request/grant message pair as sync traffic.
// The sync hardware is the same in both designs.
func (lv *Levels) SyncCost(core, id int) int64 {
	lv.M.Mesh.Account(stats.SyncTraffic, 2)
	return lv.M.SyncCost(core, id)
}

// LoadUncached reads a word directly from the on-chip shared storage,
// bypassing the private caches — the access mode of the synchronization
// variables and MPI buffers of Programming Model 1.
func (lv *Levels) LoadUncached(core int, a mem.Addr) (mem.Word, int64) {
	lv.M.Mesh.Account(stats.SyncTraffic, noc.CtrlFlits()+noc.DataFlits(mem.WordBytes))
	return lv.Backing.ReadWord(a), lv.uncachedRT(core, a)
}

// StoreUncached writes a word directly to the on-chip shared storage.
func (lv *Levels) StoreUncached(core int, a mem.Addr, v mem.Word) int64 {
	lv.M.Mesh.Account(stats.SyncTraffic, noc.DataFlits(mem.WordBytes))
	lv.Backing.WriteWord(a, v)
	return lv.uncachedRT(core, a)
}

// uncachedRT is the round trip of an uncached access: to the line's L3
// bank, or to its bank of the core's L2 when there is no L3.
func (lv *Levels) uncachedRT(core int, a mem.Addr) int64 {
	p := lv.M.Params
	line := mem.LineAddr(a)
	if lv.L3 != nil {
		return p.L3RT + lv.M.Mesh.RTLatency(lv.M.CoreNode(core), lv.M.L3Node(line))
	}
	b := lv.M.BlockOf(core)
	return p.L2RT + lv.M.Mesh.RTLatency(lv.M.CoreNode(core), lv.M.L2BankNode(b, line))
}

// EachCache calls fn on every cache: the L1s, the L2s, then the L3.
func (lv *Levels) EachCache(fn func(*cache.Cache)) {
	for _, c := range lv.L1 {
		fn(c)
	}
	for _, c := range lv.L2 {
		fn(c)
	}
	if lv.L3 != nil {
		fn(lv.L3)
	}
}

// CacheStats returns the event counters summed over every core's L1 and
// over every block's L2.
func (lv *Levels) CacheStats() (l1, l2 cache.Stats) {
	for _, c := range lv.L1 {
		addCacheStats(&l1, c)
	}
	for _, c := range lv.L2 {
		addCacheStats(&l2, c)
	}
	return l1, l2
}

func addCacheStats(dst *cache.Stats, c *cache.Cache) {
	s := c.Stats()
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.WritebacksOnEvict += s.WritebacksOnEvict
}

// Collect reads the cache event counters and the memory footprint into
// an observability snapshot; each hierarchy's collector calls it and adds
// its protocol counters.
func (lv *Levels) Collect(c *obs.Collect) {
	l1, l2 := lv.CacheStats()
	emitCacheStats(c, "cache.l1", l1)
	emitCacheStats(c, "cache.l2", l2)
	if lv.L3 != nil {
		emitCacheStats(c, "cache.l3", lv.L3.Stats())
	}
	words, pages := lv.Backing.Stats()
	c.Count("mem.footprint.words", int64(words))
	c.Gauge("mem.pages", int64(pages))
}

func emitCacheStats(c *obs.Collect, prefix string, s cache.Stats) {
	c.Count(prefix+".hits", s.Hits)
	c.Count(prefix+".misses", s.Misses)
	c.Count(prefix+".evictions", s.Evictions)
	c.Count(prefix+".writebacks_on_evict", s.WritebacksOnEvict)
}

// FingerprintWith hashes the backing memory with memFP, then mixes in
// every cache (L1s, L2s, L3) hashed with cacheFP. Each hierarchy's
// Fingerprint continues from it with its protocol state; taking the two
// functions as parameters lets the same walk serve the reference
// fingerprint.
func (lv *Levels) FingerprintWith(memFP func(*mem.Memory) uint64, cacheFP func(*cache.Cache) uint64) uint64 {
	fp := memFP(lv.Backing)
	lv.EachCache(func(c *cache.Cache) { fp = mem.Mix64(fp, cacheFP(c)) })
	return fp
}

// BoolBit returns 1 for true and 0 for false, for mixing flags into a
// fingerprint.
func BoolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DrainShared is the shared-level half of both hierarchies' Drain: it
// moves every dirty word of the L2s below them (DrainBelowL2), then every
// dirty L3 word to memory, without timing or traffic, and leaves the
// lines clean.
func (lv *Levels) DrainShared() {
	for _, l2 := range lv.L2 {
		l2.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
			if l.IsDirty() {
				lv.DrainBelowL2(l.Tag, &l.Words, l.Dirty)
				l.Dirty = 0
			}
		})
	}
	if lv.L3 == nil {
		return
	}
	lv.L3.ForEachValid(func(_ cache.FrameID, l *cache.Line) {
		if l.IsDirty() {
			lv.Backing.WriteLine(l.Tag, &l.Words, l.Dirty)
			l.Dirty = 0
		}
	})
}

// DrainBelowL2 merges the words mask selects into the L3 copy of line,
// marking them dirty, or writes them to memory when the L3 does not hold
// the line, without timing or traffic.
func (lv *Levels) DrainBelowL2(line mem.Addr, words *[mem.WordsPerLine]mem.Word, mask mem.LineMask) {
	if lv.L3 != nil {
		if l3l := lv.L3.Peek(line); l3l != nil {
			l3l.Merge(words, mask)
			return
		}
	}
	lv.Backing.WriteLine(line, words, mask)
}
