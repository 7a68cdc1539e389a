package levels

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/topo"
)

// TestDefaultConfigTableIII: Table III's sizes, with the L3 present only
// on a machine with L3 banks.
func TestDefaultConfigTableIII(t *testing.T) {
	intra := DefaultConfig(topo.NewIntraBlock())
	want := Config{
		L1: cache.Config{Bytes: 32 << 10, Ways: 4},
		L2: cache.Config{Bytes: 16 * 128 << 10, Ways: 8},
	}
	if intra != want {
		t.Errorf("intra: %+v, want %+v", intra, want)
	}
	inter := DefaultConfig(topo.NewInterBlock())
	want.L2.Bytes = 8 * 128 << 10
	want.L3 = cache.Config{Bytes: 4 * 4 << 20, Ways: 8}
	if inter != want {
		t.Errorf("inter: %+v, want %+v", inter, want)
	}
}

func TestNewBuildsEveryLevel(t *testing.T) {
	m := topo.NewInterBlock()
	lv := New(m, DefaultConfig(m))
	if len(lv.L1) != m.NumCores() || len(lv.L2) != m.Blocks || lv.L3 == nil {
		t.Fatalf("%d L1s, %d L2s, L3 %v; want %d, %d and one", len(lv.L1), len(lv.L2), lv.L3 != nil, m.NumCores(), m.Blocks)
	}
	n := 0
	lv.EachCache(func(*cache.Cache) { n++ })
	if n != m.NumCores()+m.Blocks+1 {
		t.Errorf("EachCache visited %d caches, want %d", n, m.NumCores()+m.Blocks+1)
	}
}

func TestNewPanicsWithoutL3Config(t *testing.T) {
	m := topo.NewInterBlock()
	cfg := DefaultConfig(m)
	cfg.L3 = cache.Config{}
	defer func() {
		if recover() == nil {
			t.Error("New on a machine with L3 banks and no L3 config did not panic")
		}
	}()
	New(m, cfg)
}

// TestUncachedAccess: an uncached store is visible to an uncached load
// from any core, both pay a round trip, and both count as sync traffic.
func TestUncachedAccess(t *testing.T) {
	for _, m := range []*topo.Machine{topo.NewIntraBlock(), topo.NewInterBlock()} {
		lv := New(m, DefaultConfig(m))
		if lat := lv.StoreUncached(0, 0x1000, 7); lat <= 0 {
			t.Errorf("%d blocks: uncached store latency %d", m.Blocks, lat)
		}
		v, lat := lv.LoadUncached(m.NumCores()-1, 0x1000)
		if v != 7 || lat <= 0 {
			t.Errorf("%d blocks: uncached load = %d after %d cycles, want 7 after a round trip", m.Blocks, v, lat)
		}
		if tr := lv.Traffic(); tr[stats.SyncTraffic] == 0 || tr.Total() != tr[stats.SyncTraffic] {
			t.Errorf("%d blocks: traffic %v, want sync traffic only", m.Blocks, tr)
		}
	}
}
