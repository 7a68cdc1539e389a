package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func TestDMACopyCrossBlock(t *testing.T) {
	h := interHierarchy()
	src := mem.RangeOf(0x10000, 2*mem.LineBytes)
	dst := mem.Addr(0x20000)
	// Producer in block 0 writes the source and pushes it globally.
	for i := 0; i < 2*mem.WordsPerLine; i++ {
		h.Store(0, src.Base+mem.Addr(i*mem.WordBytes), mem.Word(100+i))
	}
	h.WB(0, src, isa.LevelGlobal)
	// DMA into block 1's L2.
	lat := h.DMACopy(0, dst, src, 1)
	if lat <= 0 {
		t.Error("DMA should have initiation latency")
	}
	// Consumer in block 1: lines are already in its L2, so after an
	// L1-only INV the reads are cheap and fresh.
	h.INV(8, mem.RangeOf(dst, src.Bytes), isa.LevelAuto)
	for i := 0; i < 2*mem.WordsPerLine; i++ {
		v, l := h.Load(8, dst+mem.Addr(i*mem.WordBytes))
		if v != mem.Word(100+i) {
			t.Fatalf("word %d = %d, want %d", i, v, 100+i)
		}
		if i%mem.WordsPerLine == 0 && l >= h.M.Params.MemRT {
			t.Errorf("word %d latency %d: DMA deposit should avoid deep misses", i, l)
		}
	}
	if h.Counters().Get("dma.lines") != 2 {
		t.Errorf("dma.lines = %d", h.Counters().Get("dma.lines"))
	}
}

func TestDMADoesNotInvalidateStaleCopies(t *testing.T) {
	// Incoherent hardware: a consumer that cached the destination before
	// the DMA and does not self-invalidate keeps reading its stale copy.
	h := interHierarchy()
	src := mem.RangeOf(0x30000, mem.LineBytes)
	dst := mem.Addr(0x40000)
	h.Load(9, dst) // stale copy of the destination
	h.Store(0, src.Base, 77)
	h.WB(0, src, isa.LevelGlobal)
	h.DMACopy(0, dst, src, 1)
	if v, _ := h.Load(9, dst); v == 77 {
		t.Error("DMA must not invalidate private caches on incoherent hardware")
	}
	h.INV(9, mem.RangeOf(dst, mem.LineBytes), isa.LevelAuto)
	if v, _ := h.Load(9, dst); v != 77 {
		t.Errorf("after self-invalidation read %d, want 77", v)
	}
}

func TestDMAOnSingleBlockMachine(t *testing.T) {
	h := intraHierarchy()
	src := mem.RangeOf(0x5000, mem.LineBytes)
	h.Store(0, src.Base, 5)
	h.WB(0, src, isa.LevelAuto)
	h.DMACopy(0, 0x6000, src, 0)
	h.INV(3, mem.RangeOf(0x6000, mem.LineBytes), isa.LevelAuto)
	if v, _ := h.Load(3, 0x6000); v != 5 {
		t.Errorf("single-block DMA read %d, want 5", v)
	}
}

func TestDMAValidatesAlignment(t *testing.T) {
	h := interHierarchy()
	defer func() {
		if recover() == nil {
			t.Error("unaligned DMA should panic")
		}
	}()
	h.DMACopy(0, 0x40, mem.RangeOf(0x10004, 64), 1)
}

func TestDMALatencyScalesWithLines(t *testing.T) {
	h := interHierarchy()
	small := h.DMACopy(0, 0x50000, mem.RangeOf(0x60000, mem.LineBytes), 1)
	large := h.DMACopy(0, 0x70000, mem.RangeOf(0x80000, 16*mem.LineBytes), 1)
	if large <= small {
		t.Errorf("16-line DMA (%d) should cost more than 1-line (%d)", large, small)
	}
}
