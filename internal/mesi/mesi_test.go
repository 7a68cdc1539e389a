package mesi

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

func intraHCC() *Hierarchy {
	m := topo.NewIntraBlock()
	return New(m, levels.DefaultConfig(m))
}

func interHCC() *Hierarchy {
	m := topo.NewInterBlock()
	return New(m, levels.DefaultConfig(m))
}

func TestCoherentProducerConsumer(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x1000)
	h.Load(1, a) // consumer caches it first
	h.Store(0, a, 42)
	// No WB/INV needed: coherence makes the update visible.
	if v, _ := h.Load(1, a); v != 42 {
		t.Errorf("coherent read = %d, want 42", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x2000)
	for c := 0; c < 4; c++ {
		h.Load(c, a)
	}
	before := h.ctr.Get("invalidations")
	h.Store(0, a, 1)
	if got := h.ctr.Get("invalidations") - before; got != 3 {
		t.Errorf("invalidations = %d, want 3", got)
	}
	tr := h.Traffic()
	if tr[stats.Invalidation] == 0 {
		t.Error("no invalidation traffic recorded")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestExclusiveGrantAndSilentUpgrade(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x3000)
	h.Load(0, a) // sole reader: E
	l := h.L1[0].Peek(a)
	if l.State.String() != "E" {
		t.Fatalf("sole reader state = %v, want E", l.State)
	}
	before := h.ctr.Get("upgrades")
	lat := h.Store(0, a, 1)
	if lat != 0 {
		t.Errorf("E->M store latency = %d, want 0 (silent)", lat)
	}
	if h.ctr.Get("upgrades") != before {
		t.Error("E->M should not issue an upgrade request")
	}
}

func TestSharedUpgradeLatency(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x4000)
	h.Load(0, a)
	h.Load(5, a) // two sharers: both S
	lat := h.Store(0, a, 1)
	if lat <= 0 {
		t.Error("S->M upgrade should have exposed latency")
	}
	if l := h.L1[5].Peek(a); l != nil && l.State.String() != "I" {
		t.Errorf("sharer state after upgrade = %v", l.State)
	}
}

func TestDirtyForwardingMigratesOwnership(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x5000)
	h.Store(0, a, 77) // core 0 holds M
	before := h.ctr.Get("forwards")
	v, _ := h.Load(1, a)
	if v != 77 {
		t.Errorf("forwarded value = %d", v)
	}
	if h.ctr.Get("forwards") != before+1 {
		t.Error("dirty read should forward from owner")
	}
	// Migratory-sharing: reading dirty data migrates exclusivity, so the
	// reader's follow-up store is silent and the old owner's copy is gone.
	if h.ctr.Get("migrations") == 0 {
		t.Error("dirty read should be detected as migratory")
	}
	if lat := h.Store(1, a, 78); lat != 0 {
		t.Errorf("migrated store latency = %d, want 0 (silent E->M)", lat)
	}
	if l := h.L1[0].Peek(a); l != nil && l.State != cache.Invalid {
		t.Error("old owner should have been invalidated")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCleanSharingStaysShared(t *testing.T) {
	// Once a line is clean, further readers share it: the migratory
	// heuristic must not ping-pong read-only data.
	h := intraHCC()
	a := mem.Addr(0x5100)
	h.Store(0, a, 5)
	h.Load(1, a) // migrates E to core 1 (dirty recall)
	h.Load(2, a) // clean copy at core 1: plain downgrade to shared
	h.Load(3, a)
	if l := h.L1[2].Peek(a); l == nil || l.State == cache.Invalid {
		t.Error("reader 2 lost its copy")
	}
	if _, lat := h.Load(1, a); lat != 0 {
		t.Error("reader 1 should still hit after other readers joined")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteAfterWriteMigratesOwnership(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x6000)
	h.Store(0, a, 1)
	h.Store(1, a, 2)
	h.Store(2, a, 3)
	if v, _ := h.Load(3, a); v != 3 {
		t.Errorf("final value = %d, want 3", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	// Two cores alternately writing different words of one line: HCC
	// ping-pongs the whole line (the paper's Figure 10 discussion).
	h := intraHCC()
	line := mem.Addr(0x7000)
	for i := 0; i < 10; i++ {
		h.Store(0, line, mem.Word(i))
		h.Store(1, line+4, mem.Word(i))
	}
	if h.ctr.Get("invalidations")+h.ctr.Get("forwards") < 10 {
		t.Error("false sharing should cause repeated coherence actions")
	}
	if v, _ := h.Load(2, line); v != 9 {
		t.Errorf("word0 = %d", v)
	}
	if v, _ := h.Load(2, line+4); v != 9 {
		t.Errorf("word1 = %d", v)
	}
}

func TestCrossBlockCoherence(t *testing.T) {
	h := interHCC()
	a := mem.Addr(0x8000)
	h.Load(8, a) // block 1 reads
	h.Store(0, a, 5)
	if v, _ := h.Load(8, a); v != 5 {
		t.Errorf("cross-block read = %d, want 5", v)
	}
	h.Store(9, a, 6) // block 1 writes
	if v, _ := h.Load(0, a); v != 6 {
		t.Errorf("read-back = %d, want 6", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCrossBlockLatencyExceedsIntraBlock(t *testing.T) {
	h := interHCC()
	a := mem.Addr(0x9000)
	h.Store(0, a, 1)
	_, intra := h.Load(1, a) // same block forward
	h.Store(0, a, 2)
	_, inter := h.Load(8, a) // cross block recall
	if inter <= intra {
		t.Errorf("cross-block load (%d) should cost more than intra-block (%d)", inter, intra)
	}
}

func TestBlockRecallCounts(t *testing.T) {
	h := interHCC()
	a := mem.Addr(0xa000)
	h.Store(0, a, 1)
	h.Load(8, a)
	if h.ctr.Get("block.recalls") == 0 {
		t.Error("cross-block read of dirty line should recall")
	}
}

func TestDrainProducesFinalValues(t *testing.T) {
	h := interHCC()
	h.Store(0, 0xb000, 10)
	h.Store(9, 0xb040, 20)
	h.Drain()
	if h.Memory().ReadWord(0xb000) != 10 || h.Memory().ReadWord(0xb040) != 20 {
		t.Error("drain lost modified data")
	}
}

func TestUncached(t *testing.T) {
	h := intraHCC()
	h.StoreUncached(0, 0xc000, 3)
	if v, _ := h.LoadUncached(5, 0xc000); v != 3 {
		t.Errorf("uncached = %d", v)
	}
}

// Randomized coherence check: random loads/stores from random cores over a
// small address pool must always match a sequentially-updated reference
// (each op is atomic in this simulator, so the reference is exact), and
// the protocol invariants must hold throughout.
func TestRandomizedCoherenceIntra(t *testing.T) {
	testRandomizedCoherence(t, intraHCC(), 16)
}

func TestRandomizedCoherenceInter(t *testing.T) {
	testRandomizedCoherence(t, interHCC(), 32)
}

func testRandomizedCoherence(t *testing.T, h *Hierarchy, cores int) {
	t.Helper()
	rng := rand.New(rand.NewSource(12345))
	ref := make(map[mem.Addr]mem.Word)
	pool := make([]mem.Addr, 64)
	for i := range pool {
		pool[i] = mem.Addr(0x10000 + i*4) // 16 lines, 4 words each
	}
	for i := 0; i < 4000; i++ {
		c := rng.Intn(cores)
		a := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			v := mem.Word(rng.Uint32())
			h.Store(c, a, v)
			ref[a] = v
		} else {
			v, _ := h.Load(c, a)
			if v != ref[a] {
				t.Fatalf("op %d: core %d read %#x = %d, want %d", i, c, uint32(a), v, ref[a])
			}
		}
		if i%500 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	h.Drain()
	for a, want := range ref {
		if got := h.Memory().ReadWord(a); got != want {
			t.Fatalf("after drain: %#x = %d, want %d", uint32(a), got, want)
		}
	}
}

// Capacity stress: walk far more lines than the L1 holds so evictions and
// (with a tiny config) L2 evictions exercise inclusive recall paths.
func TestEvictionStress(t *testing.T) {
	m := topo.NewIntraBlock()
	cfg := levels.DefaultConfig(m)
	cfg.L1.Bytes = 4 << 10 // 64 lines
	h := New(m, cfg)
	rng := rand.New(rand.NewSource(99))
	ref := make(map[mem.Addr]mem.Word)
	for i := 0; i < 3000; i++ {
		c := rng.Intn(4)
		a := mem.Addr(0x20000 + rng.Intn(512)*64)
		if rng.Intn(2) == 0 {
			v := mem.Word(i)
			h.Store(c, a, v)
			ref[a] = v
		} else if want, ok := ref[a]; ok {
			if v, _ := h.Load(c, a); v != want {
				t.Fatalf("op %d: read %d, want %d", i, v, want)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestL2EvictionRecallsL1Inclusive(t *testing.T) {
	m := topo.NewIntraBlock()
	cfg := levels.DefaultConfig(m)
	cfg.L2.Bytes = 8 << 10 // 128 lines total: force L2 evictions
	cfg.L2.Ways = 2
	h := New(m, cfg)
	// Core 0 dirties many lines; L2 evictions must not lose data.
	for i := 0; i < 400; i++ {
		h.Store(0, mem.Addr(0x30000+i*64), mem.Word(i))
	}
	for i := 0; i < 400; i++ {
		if v, _ := h.Load(1, mem.Addr(0x30000+i*64)); v != mem.Word(i) {
			t.Fatalf("line %d = %d after L2 evictions", i, v)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A stencil-like pattern (owner writes, neighbor only reads, repeatedly)
// must settle into stable producer-consumer sharing: the adaptive
// predictor stops migrating after one misprediction, so migrations do not
// grow with iterations.
func TestAdaptiveMigratoryStopsOnStencil(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x20000)
	warmup := func() int64 {
		for it := 0; it < 3; it++ {
			h.Store(0, a, mem.Word(it)) // producer updates
			h.Load(1, a)                // consumer only reads
		}
		return h.ctr.Get("migrations")
	}
	first := warmup()
	for it := 0; it < 20; it++ {
		h.Store(0, a, mem.Word(100+it))
		h.Load(1, a)
	}
	if grew := h.ctr.Get("migrations") - first; grew > 0 {
		t.Errorf("migrations kept growing on a read-only consumer (%d more)", grew)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// A migratory read-modify-write chain keeps migrating (each grantee
// writes, so the prediction keeps being confirmed).
func TestMigratoryChainKeepsMigrating(t *testing.T) {
	h := intraHCC()
	a := mem.Addr(0x21000)
	h.Store(0, a, 1)
	for c := 1; c < 8; c++ {
		v, _ := h.Load(c, a)
		if lat := h.Store(c, a, v+1); lat != 0 {
			t.Fatalf("core %d store latency = %d, want 0 (migrated exclusivity)", c, lat)
		}
	}
	if v, _ := h.Load(8, a); v != 8 {
		t.Errorf("chain result = %d, want 8", v)
	}
	if h.ctr.Get("migrations") < 7 {
		t.Errorf("migrations = %d, want >= 7", h.ctr.Get("migrations"))
	}
}

// Cross-block migratory chains behave the same at the block level.
func TestCrossBlockMigratoryChain(t *testing.T) {
	h := interHCC()
	a := mem.Addr(0x22000)
	h.Store(0, a, 1)
	for b := 1; b < 4; b++ {
		core0 := b * 8
		v, _ := h.Load(core0, a)
		h.Store(core0, a, v*2)
	}
	if v, _ := h.Load(0, a); v != 8 {
		t.Errorf("cross-block chain = %d, want 8", v)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFingerprintPinned pins Fingerprint after a fixed op sequence, and
// again after Drain, on the intra machine and on the four-block inter
// machine (which has an L3). The sequence's same-set stores evict from
// the L1s, its cross-core loads forward and downgrade, and its uncached
// accesses reach memory. A refactor of the cache levels must leave every
// value unchanged.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *Hierarchy
		want [2]uint64 // Fingerprint; Fingerprint after Drain
	}{
		{"intra", intraHCC(), [2]uint64{0x89b0867350d33a14, 0x58092025556d2595}},
		{"inter", interHCC(), [2]uint64{0x8db7e631300f47c3, 0x831f6b1c603fb656}},
	} {
		h := tc.h
		n := h.Machine().NumCores()
		for i := 0; i < 6; i++ {
			c := i * 5 % n
			a := mem.Addr(0x1000 + i*(8<<10))
			h.Store(c, a, mem.Word(i+1))
			h.Load((c+1)%n, a)
		}
		h.Store(1, 0x1000, 11)
		h.StoreUncached(2, 0x9000, 77)
		h.LoadUncached(3, 0x9000)
		h.Store(n-1, 0xa000, 9)
		var got [2]uint64
		got[0] = h.Fingerprint()
		h.Drain()
		got[1] = h.Fingerprint()
		if got != tc.want {
			t.Errorf("%s: fingerprints = %#x, want %#x", tc.name, got, tc.want)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}
