package core

import (
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// runLitmusProgram drives a message-passing litmus program through the
// hierarchy the way the explorer's guests would — producer stores and
// publishes through the MEB, consumer self-invalidates lazily through the
// IEB — plus the state a replay can leave behind: set-conflict evictions,
// uncached flag traffic, and (on multi-block machines) a remapped
// ThreadMap entry.
func runLitmusProgram(h *Hierarchy) {
	x, y, flag := mem.Addr(0x1000), mem.Addr(0x1040), mem.Addr(0x8000)
	h.Load(1, x)
	h.Store(0, x, 1)
	h.Store(0, y, 2)
	h.WBAll(0, true, isa.LevelAuto)
	h.StoreUncached(0, flag, 1)
	h.EpochBoundary(0)
	h.LoadUncached(1, flag)
	h.EpochBoundary(1)
	h.INVAll(1, true, isa.LevelAuto)
	h.Load(1, x)
	h.Load(1, y)
	// Five lines 64 KB apart map to one set of any 4-way L1 up to 256 KB,
	// forcing a dirty eviction.
	for i := 0; i < 5; i++ {
		h.Store(2, mem.Addr(0x2000+i*(64<<10)), mem.Word(i))
	}
	h.Store(3, x, 9)
	h.WB(3, mem.WordRange(x, 1), isa.LevelAuto)
	h.MapThread(3, h.m.Blocks-1)
	h.Drain()
}

// resetSnapshot is everything a reset hierarchy must agree on with a
// freshly built one.
type resetSnapshot struct {
	Fingerprint uint64
	Counters    map[string]int64
	Traffic     stats.Traffic
	Evictions   int64
	Footprint   int
	ThreadMap   []int
}

func snapshot(h *Hierarchy) resetSnapshot {
	ctrs := map[string]int64{}
	c := h.Counters()
	for _, n := range c.Names() {
		ctrs[n] = c.Get(n)
	}
	return resetSnapshot{
		Fingerprint: h.Fingerprint(),
		Counters:    ctrs,
		Traffic:     h.Traffic(),
		Evictions:   h.Evictions(),
		Footprint:   h.Memory().Footprint(),
		ThreadMap:   append([]int(nil), h.threadMap...),
	}
}

// TestResetMatchesFresh: after a litmus program, Reset must leave the
// hierarchy indistinguishable from a fresh New — fingerprint, counters,
// traffic, evictions, memory footprint and ThreadMap — and replaying the
// program on the reset hierarchy must reach the same state as on a fresh
// one. The inter-block machine adds an L3 and a ThreadMap that can move.
func TestResetMatchesFresh(t *testing.T) {
	for name, build := range map[string]func() *Hierarchy{
		"litmus": litmusLikeHierarchy,
		"inter":  interHierarchy,
	} {
		h := build()
		runLitmusProgram(h)
		if h.Evictions() == 0 {
			t.Fatalf("%s: program caused no evictions; the test would not cover them", name)
		}
		for rep := 0; rep < 2; rep++ {
			h.Reset()
			if got, want := snapshot(h), snapshot(build()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: reset %d: reset hierarchy %+v, fresh %+v", name, rep, got, want)
			}
			fresh := build()
			runLitmusProgram(h)
			runLitmusProgram(fresh)
			if got, want := snapshot(h), snapshot(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay %d: reset hierarchy %+v, fresh %+v", name, rep, got, want)
			}
		}
	}
}

// TestResetRefusesAttachedState: fault plans, recorders and Bloom
// signatures keep state Reset does not own, so resetting a hierarchy
// carrying any of them must panic rather than leak it into the next run.
func TestResetRefusesAttachedState(t *testing.T) {
	bloom := func() *Hierarchy {
		m := topo.NewCustom(1, 4, 0, topo.DefaultParams())
		cfg := DefaultConfig(m)
		cfg.Bloom = true
		return New(m, cfg)
	}
	for name, build := range map[string]func() *Hierarchy{
		"faults": func() *Hierarchy {
			h := litmusLikeHierarchy()
			h.SetFaults(faultinject.NewState(faultinject.Plan{}))
			return h
		},
		"recorder": func() *Hierarchy {
			h := litmusLikeHierarchy()
			h.SetObs(obs.New(obs.Config{}))
			return h
		},
		"bloom": bloom,
	} {
		h := build()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Reset did not panic", name)
				}
			}()
			h.Reset()
		}()
	}
}
