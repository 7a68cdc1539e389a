package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

// litmusLikeHierarchy mirrors the litmus explorer's machine: one block,
// four cores, MEB and IEB enabled — the configuration whose states the
// dedup table actually fingerprints.
func litmusLikeHierarchy() *Hierarchy {
	m := topo.NewCustom(1, 4, 0, topo.DefaultParams())
	return New(m, Config{
		Config: levels.Config{
			L1: cache.Config{Bytes: 4 << 10, Ways: 4},
			L2: cache.Config{Bytes: 32 << 10, Ways: 8},
		},
		MEBEntries: 16,
		IEBEntries: 4,
	})
}

func TestFingerprintDeterministic(t *testing.T) {
	run := func() uint64 {
		h := litmusLikeHierarchy()
		h.Load(1, 0x1000)
		h.Store(0, 0x1000, 42)
		h.Store(0, 0x2000, 7)
		h.WBAll(0, true, isa.LevelAuto)  // drains via the MEB
		h.INVAll(1, true, isa.LevelAuto) // arms the IEB
		h.Load(1, 0x1000)
		return h.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical histories fingerprint differently: %#x vs %#x", a, b)
	}
}

// TestFingerprintSensitivity: each kind of state the explorer's dedup
// table must distinguish — memory values, clean-cache residency, dirty
// words, LRU order, MEB contents — changes the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := litmusLikeHierarchy().Fingerprint()
	step := func(name string, mut func(h *Hierarchy)) uint64 {
		h := litmusLikeHierarchy()
		mut(h)
		fp := h.Fingerprint()
		if fp == base {
			t.Errorf("%s: fingerprint unchanged from empty hierarchy", name)
		}
		return fp
	}
	dirty := step("dirty store", func(h *Hierarchy) { h.Store(0, 0x1000, 1) })
	step("different value", func(h *Hierarchy) { h.Store(0, 0x1000, 2) })
	step("different core", func(h *Hierarchy) { h.Store(1, 0x1000, 1) })
	clean := step("clean residency", func(h *Hierarchy) { h.Load(0, 0x1000) })
	published := step("published", func(h *Hierarchy) {
		h.Store(0, 0x1000, 1)
		h.WB(0, mem.WordRange(0x1000, 1), isa.LevelAuto)
	})
	if dirty == clean || dirty == published || clean == published {
		t.Error("dirty / clean / published states collide")
	}
	// LRU order is future-relevant (it decides the next victim): two
	// hierarchies caching the same two lines in opposite touch order
	// must differ.
	lru := func(first, second mem.Addr) uint64 {
		h := litmusLikeHierarchy()
		h.Load(0, first)
		h.Load(0, second)
		// Touch first again so the recency order differs from insertion
		// order in exactly one of the two variants.
		h.Load(0, first)
		return h.Fingerprint()
	}
	// 0x1000 and 0x1000+64*sets map to the same set of the 4 KB L1.
	mate := mem.Addr(0x1000 + 4<<10)
	if lru(0x1000, mate) == lru(mate, 0x1000) {
		t.Error("LRU recency order does not reach the fingerprint")
	}
}

func TestFingerprintPanicsOnBloom(t *testing.T) {
	m := topo.NewIntraBlock()
	cfg := Config{Config: levels.DefaultConfig(m)}
	cfg.Bloom = true
	h := New(m, cfg)
	defer func() {
		if recover() == nil {
			t.Error("Fingerprint with Bloom signatures did not panic")
		}
	}()
	h.Fingerprint()
}

func TestMinCacheSets(t *testing.T) {
	h := litmusLikeHierarchy()
	// 4 KB, 4-way, 64 B lines -> 16 sets; the 32 KB 8-way L2 has 64.
	if got := h.MinCacheSets(); got != 16 {
		t.Errorf("MinCacheSets = %d, want 16 (the L1)", got)
	}
	inter := interHierarchy()
	if got, l1 := inter.MinCacheSets(), inter.L1[0].Sets(); got > l1 {
		t.Errorf("MinCacheSets = %d exceeds the L1's %d sets", got, l1)
	}
}

// pinOps runs a fixed op sequence that touches every level: same-set
// stores and cross-core loads that evict from the L1s, whole-cache WB and
// INV, an armed-IEB load, uncached accesses and a range writeback.
func pinOps(h *Hierarchy) {
	n := h.Machine().NumCores()
	for i := 0; i < 6; i++ {
		c := i * 5 % n
		a := mem.Addr(0x1000 + i*(8<<10))
		h.Store(c, a, mem.Word(i+1))
		h.Load((c+1)%n, a)
	}
	h.WBAll(0, true, isa.LevelAuto)
	h.INVAll(1, true, isa.LevelAuto)
	h.Load(1, 0x1000)
	h.StoreUncached(2, 0x9000, 77)
	h.LoadUncached(3, 0x9000)
	h.Store(n-1, 0xa000, 9)
	h.WB(n-1, mem.WordRange(0xa000, 1), isa.LevelAuto)
}

// TestFingerprintPinned pins Fingerprint and ReferenceFingerprint after
// pinOps, and again after Drain, on the intra machine and on the
// four-block inter machine (which has an L3). A refactor of the cache
// levels must leave every value unchanged.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *Hierarchy
		want [4]uint64 // Fingerprint, ReferenceFingerprint; then both after Drain
	}{
		{"intra", intraHierarchy(), [4]uint64{0x66972c0a3a193611, 0x66972c0a3a193611, 0x20cd3d5e938cb3f9, 0x20cd3d5e938cb3f9}},
		{"inter", interHierarchy(), [4]uint64{0x9397e1168f86a096, 0x9397e1168f86a096, 0x35a8205f9312add8, 0x35a8205f9312add8}},
	} {
		h := tc.h
		pinOps(h)
		var got [4]uint64
		got[0], got[1] = h.Fingerprint(), h.ReferenceFingerprint()
		h.Drain()
		got[2], got[3] = h.Fingerprint(), h.ReferenceFingerprint()
		if got != tc.want {
			t.Errorf("%s: fingerprints = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
