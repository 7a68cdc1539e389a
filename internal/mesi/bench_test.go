package mesi

import (
	"testing"

	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

// BenchmarkMesiDirectory measures the directory hot path of the MESI
// baseline: loads and stores whose lines continually enter and leave the
// L2/L3 directories (fills, upgrades, invalidations, evictions). Before
// the flat-table rewrite every touched line allocated a map entry plus a
// heap dirEntry; the benchmark's allocs/op tracks that cost.
func BenchmarkMesiDirectory(b *testing.B) {
	bench := func(b *testing.B, m *topo.Machine) {
		h := New(m, levels.DefaultConfig(m))
		cores := m.NumCores()
		// Working set: 8192 lines shared round-robin by all cores, with
		// every fourth access a store so ownership migrates between cores
		// and blocks and directory entries cycle through their states.
		const lines = 8192
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core := i % cores
			a := mem.Addr((i*7)%lines) * mem.LineBytes
			if i%4 == 0 {
				h.Store(core, a, mem.Word(i))
			} else {
				h.Load(core, a)
			}
		}
	}
	b.Run("intra", func(b *testing.B) { bench(b, topo.NewIntraBlock()) })
	b.Run("inter", func(b *testing.B) { bench(b, topo.NewInterBlock()) })
}
