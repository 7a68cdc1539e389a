package core

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

func bloomHierarchy() *Hierarchy {
	m := topo.NewIntraBlock()
	cfg := Config{Config: levels.DefaultConfig(m)}
	cfg.Bloom = true
	return New(m, cfg)
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(lines []uint16) bool {
		b := NewBloom(256, 2)
		for _, l := range lines {
			b.Add(mem.Addr(l) * mem.LineBytes)
		}
		for _, l := range lines {
			if !b.MayContain(mem.Addr(l) * mem.LineBytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBloomUnionSuperset(t *testing.T) {
	f := func(a, b []uint16) bool {
		fa, fb := NewBloom(256, 2), NewBloom(256, 2)
		for _, l := range a {
			fa.Add(mem.Addr(l) * mem.LineBytes)
		}
		for _, l := range b {
			fb.Add(mem.Addr(l) * mem.LineBytes)
		}
		fa.Union(fb)
		for _, l := range append(a, b...) {
			if !fa.MayContain(mem.Addr(l) * mem.LineBytes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBloomSelectivityOnFreshFilter(t *testing.T) {
	b := NewBloom(1024, 2)
	b.Add(0x1000)
	// A fresh filter with one entry should reject the vast majority of
	// other lines.
	misses := 0
	for i := 0; i < 1000; i++ {
		if !b.MayContain(mem.Addr(0x100000 + i*mem.LineBytes)) {
			misses++
		}
	}
	if misses < 950 {
		t.Errorf("only %d/1000 rejected by a nearly-empty filter", misses)
	}
	b.Reset()
	if b.PopCount() != 0 {
		t.Error("reset filter should be empty")
	}
}

func TestSigPublishAndINVSigCommunicate(t *testing.T) {
	h := bloomHierarchy()
	a := mem.Addr(0x1000)
	const ch = 7
	h.Load(1, a) // consumer caches stale copy
	h.Store(0, a, 99)
	h.WBAll(0, false, isa.LevelAuto) // write back (release side)
	h.SigPublish(0, ch)
	h.INVSig(1, ch) // acquire side: selective invalidation
	if v, _ := h.Load(1, a); v != 99 {
		t.Errorf("consumer read %d after signature invalidation, want 99", v)
	}
}

func TestINVSigIsSelective(t *testing.T) {
	h := bloomHierarchy()
	written := mem.Addr(0x2000)
	untouched := mem.Addr(0x8000)
	const ch = 3
	h.Load(1, written)
	h.Load(1, untouched)
	h.Store(0, written, 5)
	h.WBAll(0, false, isa.LevelAuto)
	h.SigPublish(0, ch)
	h.INVSig(1, ch)
	if h.L1[1].Peek(written) != nil {
		t.Error("written line should have been invalidated")
	}
	if h.L1[1].Peek(untouched) == nil {
		t.Error("unwritten line should have survived the selective invalidation")
	}
}

func TestChannelSignaturesSaturate(t *testing.T) {
	h := bloomHierarchy()
	const ch = 1
	before := h.BloomChannelSaturation(ch)
	// Many epochs writing distinct lines: the channel union only grows.
	for e := 0; e < 150; e++ {
		h.Store(0, mem.Addr(0x10000+e*mem.LineBytes), mem.Word(e))
		h.WBAll(0, false, isa.LevelAuto)
		h.SigPublish(0, ch)
	}
	after := h.BloomChannelSaturation(ch)
	if after <= before || after < 0.3 {
		t.Errorf("saturation did not grow as expected: %f -> %f", before, after)
	}
	// A saturated signature invalidates most of a consumer's cache —
	// selectivity decays toward INV ALL, the weakness the paper cites.
	for i := 0; i < 32; i++ {
		h.Load(1, mem.Addr(0x80000+i*mem.LineBytes))
	}
	h.INVSig(1, ch)
	if h.Counters().Get("bloom.matched") < 4 {
		t.Errorf("saturated signature matched only %d lines", h.Counters().Get("bloom.matched"))
	}
}

func TestBloomDisabledOpsAreNoops(t *testing.T) {
	m := topo.NewIntraBlock()
	h := New(m, Config{Config: levels.DefaultConfig(m)}) // no Bloom
	if lat := h.SigPublish(0, 1); lat != 0 {
		t.Error("publish without Bloom should be free")
	}
	if lat := h.INVSig(0, 1); lat != 0 {
		t.Error("INVSig without Bloom should be free")
	}
}
