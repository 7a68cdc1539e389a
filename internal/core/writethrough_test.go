package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

func wtHierarchy() *Hierarchy {
	m := topo.NewIntraBlock()
	cfg := Config{Config: levels.DefaultConfig(m)}
	cfg.WriteThrough = true
	cfg.IEBEntries = 4
	return New(m, cfg)
}

func TestWriteThroughStoreVisibleWithoutWB(t *testing.T) {
	h := wtHierarchy()
	a := mem.Addr(0x1000)
	h.Store(0, a, 42)
	// No WB issued; the consumer's self-invalidation alone suffices.
	h.INV(1, mem.WordRange(a, 1), isa.LevelAuto)
	if v, _ := h.Load(1, a); v != 42 {
		t.Errorf("consumer read %d without producer WB, want 42 (write-through)", v)
	}
}

func TestWriteThroughLeavesL1Clean(t *testing.T) {
	h := wtHierarchy()
	a := mem.Addr(0x2000)
	h.Store(0, a, 7)
	l := h.L1[0].Peek(a)
	if l == nil || l.IsDirty() {
		t.Error("write-through store should leave the L1 line clean")
	}
	// WB ALL finds nothing to do.
	before := h.Counters().Get("wb.words")
	h.WBAll(0, false, isa.LevelAuto)
	if h.Counters().Get("wb.words") != before {
		t.Error("WB ALL moved data on a write-through hierarchy")
	}
}

func TestWriteThroughOwnReadsStayCorrect(t *testing.T) {
	h := wtHierarchy()
	a := mem.Addr(0x3000)
	h.Store(0, a, 5)
	if v, lat := h.Load(0, a); v != 5 || lat != 0 {
		t.Errorf("own read = (%d, %d), want hit of 5", v, lat)
	}
}

func TestWriteThroughPaysPerStoreTraffic(t *testing.T) {
	h := wtHierarchy()
	a := mem.Addr(0x4000)
	h.Load(0, a) // allocate first so only store traffic follows
	beforeTr := h.Traffic()
	for i := 0; i < 10; i++ {
		h.Store(0, a, mem.Word(i))
	}
	after := h.Traffic()
	if after[stats.Writeback]-beforeTr[stats.Writeback] < 10 {
		t.Error("write-through should pay per-store writeback traffic")
	}
	if h.Counters().Get("wt.stores") != 10 {
		t.Errorf("wt.stores = %d", h.Counters().Get("wt.stores"))
	}
}

func TestWriteThroughFalseSharingSafe(t *testing.T) {
	h := wtHierarchy()
	line := mem.Addr(0x5000)
	h.Load(0, line)
	h.Load(1, line+4)
	h.Store(0, line, 11)
	h.Store(1, line+4, 22)
	h.INV(2, mem.WordRange(line, 16), isa.LevelAuto)
	if v, _ := h.Load(2, line); v != 11 {
		t.Errorf("word 0 = %d", v)
	}
	if v, _ := h.Load(2, line+4); v != 22 {
		t.Errorf("word 1 = %d", v)
	}
}

func TestWriteThroughDrain(t *testing.T) {
	h := wtHierarchy()
	h.Store(0, 0x6000, 9)
	h.Drain()
	if h.Memory().ReadWord(0x6000) != 9 {
		t.Error("write-through data lost at drain")
	}
}
