package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

func intraHierarchy() *Hierarchy {
	m := topo.NewIntraBlock()
	cfg := Config{Config: levels.DefaultConfig(m)}
	cfg.MEBEntries = 16
	cfg.IEBEntries = 4
	return New(m, cfg)
}

func interHierarchy() *Hierarchy {
	m := topo.NewInterBlock()
	return New(m, Config{Config: levels.DefaultConfig(m)})
}

// seed writes v to addr via core c and returns the store's latency.
func seed(h *Hierarchy, c int, a mem.Addr, v mem.Word) { h.Store(c, a, v) }

func TestProducerConsumerNeedsWBAndINV(t *testing.T) {
	a := mem.Addr(0x1000)
	// Correct protocol: store, WB, (sync), INV, load.
	h := intraHierarchy()
	// Consumer caches the stale value first.
	if v, _ := h.Load(1, a); v != 0 {
		t.Fatalf("initial value = %d", v)
	}
	seed(h, 0, a, 42)
	h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	h.INV(1, mem.WordRange(a, 1), isa.LevelAuto)
	if v, _ := h.Load(1, a); v != 42 {
		t.Errorf("consumer read %d after WB+INV, want 42", v)
	}
}

func TestMissingWBYieldsStaleRead(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x1000)
	h.Load(1, a) // consumer caches line
	seed(h, 0, a, 42)
	// No WB: even after INV the consumer refetches the stale shared copy.
	h.INV(1, mem.WordRange(a, 1), isa.LevelAuto)
	if v, _ := h.Load(1, a); v == 42 {
		t.Error("consumer saw the update without a writeback — caches are snooping?")
	}
}

func TestMissingINVYieldsStaleRead(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x1000)
	h.Load(1, a)
	seed(h, 0, a, 42)
	h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	if v, _ := h.Load(1, a); v == 42 {
		t.Error("consumer saw the update without self-invalidation")
	}
}

func TestPerWordDirtyMergePreservesBothWriters(t *testing.T) {
	h := intraHierarchy()
	line := mem.Addr(0x2000)
	w0, w3 := line, line+3*mem.WordBytes
	// Both cores cache the line, then write different words.
	h.Load(0, w0)
	h.Load(1, w3)
	h.Store(0, w0, 11)
	h.Store(1, w3, 33)
	// Each writes back its own variable; per-word dirty bits must prevent
	// them from overwriting each other (Section III-B).
	h.WB(0, mem.WordRange(w0, 1), isa.LevelAuto)
	h.WB(1, mem.WordRange(w3, 1), isa.LevelAuto)
	h.INV(2, mem.WordRange(line, mem.WordsPerLine), isa.LevelAuto)
	if v, _ := h.Load(2, w0); v != 11 {
		t.Errorf("word 0 = %d, want 11", v)
	}
	if v, _ := h.Load(2, w3); v != 33 {
		t.Errorf("word 3 = %d, want 33", v)
	}
}

func TestWBLeavesLineCleanValid(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x3000)
	h.Store(0, a, 5)
	h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	l := h.L1[0].Peek(a)
	if l == nil || !l.Valid {
		t.Fatal("line should remain valid after WB")
	}
	if l.IsDirty() {
		t.Error("line should be clean after WB")
	}
	// And the local copy still hits with the written value.
	if v, lat := h.Load(0, a); v != 5 || lat != 0 {
		t.Errorf("post-WB load = (%d, %d)", v, lat)
	}
}

func TestWBNoEffectWhenClean(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x3000)
	h.Load(0, a)
	before := h.Counters().Get("wb.words")
	lat := h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	if h.Counters().Get("wb.words") != before {
		t.Error("clean WB moved data")
	}
	if lat >= h.M.Params.L2RT {
		t.Errorf("clean WB latency %d should not include a drain round trip", lat)
	}
}

func TestINVDrainsDirtyDataFirst(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x4000)
	h.Store(0, a, 77)
	// INV without prior WB: Section III-B says dirty data is written back
	// before invalidation, so no update may be lost.
	h.INV(0, mem.WordRange(a, 1), isa.LevelAuto)
	if h.L1[0].Peek(a) != nil {
		t.Fatal("line still present after INV")
	}
	if v, _ := h.Load(1, a); v != 77 {
		t.Errorf("update lost by INV: consumer read %d", v)
	}
}

func TestINVRangeExpandsToLines(t *testing.T) {
	h := intraHierarchy()
	// One range covering three lines.
	base := mem.Addr(0x5000)
	for i := 0; i < 3; i++ {
		h.Load(0, base+mem.Addr(i*mem.LineBytes))
	}
	h.INV(0, mem.RangeOf(base+4, 2*mem.LineBytes), isa.LevelAuto)
	for i := 0; i < 3; i++ {
		if h.L1[0].Peek(base+mem.Addr(i*mem.LineBytes)) != nil {
			t.Errorf("line %d not invalidated", i)
		}
	}
}

func TestWBAllFullTraversal(t *testing.T) {
	h := intraHierarchy()
	for i := 0; i < 10; i++ {
		h.Store(0, mem.Addr(0x6000+i*mem.LineBytes), mem.Word(i))
	}
	lat := h.WBAll(0, false, isa.LevelAuto)
	if lat < int64(h.L1[0].NumFrames()) {
		t.Errorf("full WB ALL latency %d below tag traversal cost", lat)
	}
	if h.L1[0].CountDirty() != 0 {
		t.Error("dirty lines remain after WB ALL")
	}
	// Values visible to others after INV.
	h.INVAll(1, false, isa.LevelAuto)
	for i := 0; i < 10; i++ {
		if v, _ := h.Load(1, mem.Addr(0x6000+i*mem.LineBytes)); v != mem.Word(i) {
			t.Errorf("line %d = %d", i, v)
		}
	}
}

func TestWBAllMEBServedAndCheaper(t *testing.T) {
	h := intraHierarchy()
	for i := 0; i < 5; i++ {
		h.Store(0, mem.Addr(0x7000+i*mem.LineBytes), mem.Word(100+i))
	}
	latMEB := h.WBAll(0, true, isa.LevelAuto)
	if h.Counters().Get("meb.served") != 1 {
		t.Fatal("MEB did not serve the WB ALL")
	}
	if h.L1[0].CountDirty() != 0 {
		t.Error("MEB WB ALL left dirty lines")
	}
	// Compare against a full traversal on a second, identical hierarchy.
	h2 := intraHierarchy()
	for i := 0; i < 5; i++ {
		h2.Store(0, mem.Addr(0x7000+i*mem.LineBytes), mem.Word(100+i))
	}
	latFull := h2.WBAll(0, false, isa.LevelAuto)
	if latMEB >= latFull {
		t.Errorf("MEB WB ALL (%d) not cheaper than full traversal (%d)", latMEB, latFull)
	}
}

func TestMEBOverflowFallsBack(t *testing.T) {
	h := intraHierarchy() // MEB capacity 16
	for i := 0; i < 40; i++ {
		h.Store(0, mem.Addr(0x8000+i*mem.LineBytes), mem.Word(i))
	}
	h.WBAll(0, true, isa.LevelAuto)
	if h.Counters().Get("meb.fallback") != 1 {
		t.Error("overflowed MEB should fall back to full traversal")
	}
	if h.L1[0].CountDirty() != 0 {
		t.Error("fallback WB ALL left dirty lines")
	}
	// The WB ALL cleared the MEB, so it is valid again.
	h.Store(0, 0x8000, 9)
	h.WBAll(0, true, isa.LevelAuto)
	if h.Counters().Get("meb.served") != 1 {
		t.Error("MEB should serve again after clear")
	}
}

// Property: whatever the store pattern, an MEB-assisted WB ALL leaves no
// dirty line behind (the soundness invariant of the clear-on-WBALL design).
func TestMEBSoundnessProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := intraHierarchy()
		for _, o := range ops {
			a := mem.Addr(0x10000 + int(o%997)*4)
			if o%3 == 0 {
				h.Load(0, a)
			} else {
				h.Store(0, a, mem.Word(o))
			}
			if o%31 == 0 {
				h.WBAll(0, true, isa.LevelAuto)
			}
		}
		h.WBAll(0, true, isa.LevelAuto)
		return h.L1[0].CountDirty() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIEBLazyInvalidation(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x9000)
	// Consumer caches stale copy; producer updates and writes back.
	h.Load(1, a)
	h.Store(0, a, 55)
	h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	// Lazy INV ALL: nothing invalidated yet, but the first read must
	// refresh.
	lat := h.INVAll(1, true, isa.LevelAuto)
	if lat > 2 {
		t.Errorf("lazy INV ALL latency = %d, want ~1", lat)
	}
	if v, l := h.Load(1, a); v != 55 || l == 0 {
		t.Fatalf("first armed read = (%d, lat %d), want fresh 55 with a miss", v, l)
	}
	// Second read of the same line: filtered by IEB, hits locally.
	if v, l := h.Load(1, a); v != 55 || l != 0 {
		t.Errorf("second armed read = (%d, lat %d), want hit", v, l)
	}
	if h.Counters().Get("ieb.filtered") == 0 {
		t.Error("IEB did not filter the second read")
	}
}

func TestIEBDirtyOwnWordNotInvalidated(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0xa000)
	h.INVAll(0, true, isa.LevelAuto)
	h.Store(0, a, 7) // own write inside the epoch
	if v, lat := h.Load(0, a); v != 7 || lat != 0 {
		t.Errorf("read of own dirty word = (%d, %d), want hit of 7", v, lat)
	}
	if h.Counters().Get("ieb.dirtyhit") == 0 {
		t.Error("dirty-word read should be recognized as not stale")
	}
}

func TestIEBEvictionCausesExtraInvalidation(t *testing.T) {
	h := intraHierarchy() // IEB capacity 4
	h.INVAll(0, true, isa.LevelAuto)
	// Touch 5 distinct lines: the first gets evicted from the IEB.
	for i := 0; i < 5; i++ {
		h.Load(0, mem.Addr(0xb000+i*mem.LineBytes))
	}
	if h.Counters().Get("ieb.evictions") == 0 {
		t.Fatal("expected an IEB eviction")
	}
	// Re-reading the first line self-invalidates again (unnecessary but
	// correct).
	before := h.Counters().Get("ieb.selfinv")
	if _, lat := h.Load(0, 0xb000); lat == 0 {
		t.Error("evicted line should re-invalidate and miss")
	}
	if h.Counters().Get("ieb.selfinv") != before+1 {
		t.Error("re-read of evicted line should self-invalidate")
	}
}

func TestIEBDisarmedAtEpochBoundary(t *testing.T) {
	h := intraHierarchy()
	h.INVAll(0, true, isa.LevelAuto)
	if !h.ieb[0].Armed() {
		t.Fatal("IEB should be armed")
	}
	h.EpochBoundary(0)
	if h.ieb[0].Armed() {
		t.Fatal("IEB should disarm at the epoch boundary")
	}
	// After disarm, loads behave normally (no self-invalidation).
	h.Load(0, 0xc000)
	before := h.Counters().Get("ieb.selfinv")
	h.Load(0, 0xc000)
	if h.Counters().Get("ieb.selfinv") != before {
		t.Error("disarmed IEB still invalidating")
	}
}

func TestIEBDrainsOwnDirtyWordsOnFirstRead(t *testing.T) {
	h := intraHierarchy()
	line := mem.Addr(0xd000)
	// Core 0 dirties word 0, then enters a lazy epoch and reads word 1
	// (clean) of the same line: the self-invalidation must not lose word 0.
	h.Store(0, line, 88)
	h.INVAll(0, true, isa.LevelAuto)
	h.Load(0, line+4)
	if v, _ := h.Load(1, line); v == 88 {
		// Not yet visible is fine (nothing synchronized), but the value
		// must exist in the shared level, which the refetch proves:
		_ = v
	}
	if v, _ := h.Load(0, line); v != 88 {
		t.Errorf("own update lost by lazy invalidation: %d", v)
	}
}

func TestLatencyOrdering(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0xe000)
	_, missLat := h.Load(0, a) // cold: memory
	if missLat < h.M.Params.MemRT {
		t.Errorf("cold miss latency %d below memory RT", missLat)
	}
	if _, lat := h.Load(0, a); lat != 0 {
		t.Errorf("L1 hit latency = %d", lat)
	}
	// Another core in the same block: L2 hit.
	_, l2lat := h.Load(1, a)
	if l2lat <= 0 || l2lat >= missLat {
		t.Errorf("L2 hit latency %d not between hit and memory (%d)", l2lat, missLat)
	}
	// A core in another block: misses its own L2, hits L3.
	_, l3lat := h.Load(8, a)
	if l3lat <= l2lat || l3lat >= missLat {
		t.Errorf("L3 hit latency %d not between L2 (%d) and memory (%d)", l3lat, l2lat, missLat)
	}
}

func TestCrossBlockNeedsGlobalOps(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0xf000)
	h.Load(8, a) // consumer in block 1 caches stale copy (L1+L2)
	h.Store(0, a, 123)
	// Local WB + local INV are not enough across blocks.
	h.WB(0, mem.WordRange(a, 1), isa.LevelAuto)
	h.INV(8, mem.WordRange(a, 1), isa.LevelAuto)
	if v, _ := h.Load(8, a); v == 123 {
		t.Fatal("cross-block update visible with local-only WB/INV")
	}
	// Global WB + global INV work.
	h.WB(0, mem.WordRange(a, 1), isa.LevelGlobal)
	h.INV(8, mem.WordRange(a, 1), isa.LevelGlobal)
	if v, _ := h.Load(8, a); v != 123 {
		t.Errorf("cross-block read = %d, want 123", v)
	}
}

func TestLevelAdaptiveSameBlockStaysLocal(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0x11000)
	h.Load(1, a)
	h.Store(0, a, 9)
	h.WBCons(0, mem.WordRange(a, 1), 1) // consumer thread 1: same block
	h.InvProd(1, mem.WordRange(a, 1), 0)
	if v, _ := h.Load(1, a); v != 9 {
		t.Errorf("same-block adaptive read = %d", v)
	}
	if h.Counters().Get("wbcons.auto") != 1 || h.Counters().Get("wbcons.global") != 0 {
		t.Error("WB_CONS should have resolved to the local level")
	}
	wb, inv := h.GlobalOps()
	if wb != 0 || inv != 0 {
		t.Errorf("global ops = (%d,%d), want none", wb, inv)
	}
}

func TestLevelAdaptiveCrossBlockGoesGlobal(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0x12000)
	h.Load(8, a)
	h.Store(0, a, 31)
	h.WBCons(0, mem.WordRange(a, 1), 8) // consumer thread 8: block 1
	h.InvProd(8, mem.WordRange(a, 1), 0)
	if v, _ := h.Load(8, a); v != 31 {
		t.Errorf("cross-block adaptive read = %d, want 31", v)
	}
	if h.Counters().Get("wbcons.global") != 1 {
		t.Error("WB_CONS should have resolved to the global level")
	}
	wb, inv := h.GlobalOps()
	if wb == 0 || inv == 0 {
		t.Errorf("global ops = (%d,%d), want both nonzero", wb, inv)
	}
}

func TestLevelAdaptiveFollowsThreadMap(t *testing.T) {
	// Same program, different mapping: thread 8 remapped into block 0
	// makes the operation local.
	h := interHierarchy()
	h.MapThread(8, 0)
	a := mem.Addr(0x13000)
	h.Store(0, a, 1)
	h.WBCons(0, mem.WordRange(a, 1), 8)
	if h.Counters().Get("wbcons.auto") != 1 {
		t.Error("remapped consumer should make WB_CONS local")
	}
}

func TestWBConsAllCrossBlockFlushesBlockL2(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0x14000)
	// Core 1 (same block as 0) dirtied the L2 via an eviction-free WB.
	h.Store(1, a, 77)
	h.WB(1, mem.WordRange(a, 1), isa.LevelAuto) // now dirty in block 0's L2
	h.Store(0, 0x15000, 5)
	h.WBConsAll(0, 8) // cross block: must also push block L2 dirty lines to L3
	// Consumer in block 1 invalidates L2+L1, then reads both values.
	h.InvProdAll(8, 0)
	if v, _ := h.Load(8, a); v != 77 {
		t.Errorf("block-L2 dirty line not pushed to L3: read %d", v)
	}
	if v, _ := h.Load(8, 0x15000); v != 5 {
		t.Errorf("L1 dirty line not pushed to L3: read %d", v)
	}
}

func TestGlobalWBAlsoUpdatesLocalL2(t *testing.T) {
	h := interHierarchy()
	a := mem.Addr(0x16000)
	h.Load(1, a) // block sibling caches stale
	h.Store(0, a, 64)
	h.WB(0, mem.WordRange(a, 1), isa.LevelGlobal)
	// A sibling in the same block INVs locally and must see the value via
	// the block's L2 (the global WB updates both L2 and L3).
	h.INV(1, mem.WordRange(a, 1), isa.LevelAuto)
	if v, _ := h.Load(1, a); v != 64 {
		t.Errorf("sibling read %d after global WB, want 64", v)
	}
}

func TestDrainFlushesEverything(t *testing.T) {
	h := interHierarchy()
	h.Store(0, 0x17000, 1)
	h.Store(9, 0x18000, 2)
	h.WB(9, mem.WordRange(0x18000, 1), isa.LevelAuto) // dirty in block L2
	h.Drain()
	if h.Memory().ReadWord(0x17000) != 1 || h.Memory().ReadWord(0x18000) != 2 {
		t.Error("drain did not flush dirty data to memory")
	}
}

func TestUncachedAccess(t *testing.T) {
	h := interHierarchy()
	lat := h.StoreUncached(0, 0x19000, 11)
	if lat <= 0 {
		t.Error("uncached store should have latency")
	}
	v, lat2 := h.LoadUncached(8, 0x19000)
	if v != 11 {
		t.Errorf("uncached load = %d", v)
	}
	if lat2 <= 0 {
		t.Error("uncached load should have latency")
	}
	// Uncached data bypasses caches entirely: visible without WB/INV.
}

func TestEffLevelClampsOnSingleBlock(t *testing.T) {
	h := intraHierarchy()
	a := mem.Addr(0x1a000)
	h.Store(0, a, 3)
	// Global on a machine with no L3 behaves like auto and must not panic.
	h.WB(0, mem.WordRange(a, 1), isa.LevelGlobal)
	h.INV(1, mem.WordRange(a, 1), isa.LevelGlobal)
	if v, _ := h.Load(1, a); v != 3 {
		t.Errorf("read = %d", v)
	}
	wb, _ := h.GlobalOps()
	if wb != 0 {
		t.Error("single-block machine should record no global WBs")
	}
}

func TestMapThreadValidation(t *testing.T) {
	h := interHierarchy()
	defer func() {
		if recover() == nil {
			t.Error("mapping to a nonexistent block should panic")
		}
	}()
	h.MapThread(0, 99)
}

func TestL1EvictionWritesBackDirtyWords(t *testing.T) {
	m := topo.NewIntraBlock()
	cfg := Config{Config: levels.DefaultConfig(m)}
	cfg.L1 = cacheConfigTiny()
	h := New(m, cfg)
	// Fill one set beyond capacity with dirty lines; evicted dirty data
	// must survive in the shared level.
	setsBytes := uint32(cfg.L1.Bytes)
	h.Store(0, 0x100000, 1)
	for i := 1; i < 3; i++ {
		h.Store(0, mem.Addr(0x100000+uint32(i)*setsBytes), mem.Word(i+1))
	}
	// First line was necessarily evicted (1-way tiny cache).
	if v, _ := h.Load(1, 0x100000); v != 1 {
		t.Errorf("evicted dirty line lost: read %d", v)
	}
}

func cacheConfigTiny() cache.Config {
	return cache.Config{Bytes: 64, Ways: 1}
}
