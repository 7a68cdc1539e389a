package core

import (
	"maps"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/topo"
)

// privateTwin builds the machine FuzzPrivateMatchesLoadStore drives: one
// block of four cores with tiny L1s, so the op stream keeps missing,
// evicting and refilling. mode picks the write-back L1s with MEB and IEB,
// bare write-back L1s, or write-through L1s.
func privateTwin(mode byte) *Hierarchy {
	cfg := Config{Config: levels.Config{
		L1: cache.Config{Bytes: 512, Ways: 2},
		L2: cache.Config{Bytes: 4 << 10, Ways: 4},
	}}
	switch mode % 3 {
	case 0:
		cfg.MEBEntries, cfg.IEBEntries = 4, 2
	case 2:
		cfg.WriteThrough = true
	}
	return New(topo.NewCustom(1, 4, 0, topo.DefaultParams()), cfg)
}

// observed is everything Private may change besides the fingerprinted
// state: the protocol counters and the cache event counters.
type observed struct {
	ctrs   map[string]int64
	l1, l2 cache.Stats
}

func observe(h *Hierarchy) observed {
	o := observed{ctrs: map[string]int64{}}
	c := h.Counters()
	for _, n := range c.Names() {
		o.ctrs[n] = c.Get(n)
	}
	o.l1, o.l2 = h.CacheStats()
	return o
}

func (o observed) equal(p observed) bool {
	return maps.Equal(o.ctrs, p.ctrs) && o.l1 == p.l1 && o.l2 == p.l2
}

// FuzzPrivateMatchesLoadStore is the property behind the engine's
// private-op fast path. Two hierarchies run the same op stream; before
// each load or store, the first tries Private. A refusal must leave the
// hierarchy untouched, and the op then goes through Load/Store on both.
// An acceptance must return what Load returns on the twin and leave the
// two in the same state, counters and cache statistics included.
func FuzzPrivateMatchesLoadStore(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x21, 0x32, 0x10, 0x60, 0x10, 0x73, 0x10, 0x11})
	f.Add([]byte{1, 0x10, 0x10, 0x20, 0x20, 0x54, 0x10, 0x20})
	f.Add([]byte{2, 0x11, 0x11, 0x25, 0x25, 0x46, 0x11})
	f.Add([]byte{0, 0x90, 0x10, 0x10, 0x80, 0x10, 0x10, 0x61, 0x11, 0x11, 0x21})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 512 {
			return
		}
		a, b := privateTwin(prog[0]), privateTwin(prog[0])
		for i, x := range prog[1:] {
			// Each byte is one op: the high nibble picks the op, the low
			// two bits the core, and bits 2-3 one of four words spread
			// over lines that conflict in the tiny L1s.
			core := int(x & 3)
			addr := mem.Addr(0x1000 + int(x>>2&3)*0x400 + int(x>>2&1)*4)
			switch x >> 4 {
			case 0, 1, 2, 3:
				kind := isa.OpLoad
				if x>>4 >= 2 {
					kind = isa.OpStore
				}
				v := mem.Word(i + 1)
				fp, seen := a.Fingerprint(), observe(a)
				got, ok := a.Private(core, kind, addr, v)
				if !ok && (a.Fingerprint() != fp || !observe(a).equal(seen)) {
					t.Fatalf("op %d: refused Private(%d, %v, %#x) changed the hierarchy", i, core, kind, addr)
				}
				var want mem.Word
				var lat int64
				if kind == isa.OpLoad {
					want, lat = b.Load(core, addr)
					if !ok {
						got, _ = a.Load(core, addr)
					}
				} else {
					lat = b.Store(core, addr, v)
					if !ok {
						a.Store(core, addr, v)
					}
				}
				if ok && lat != 0 {
					t.Fatalf("op %d: Private accepted %v at %#x, but Load/Store exposed %d cycles", i, kind, addr, lat)
				}
				if got != want {
					t.Fatalf("op %d: core %d %v %#x: got %d, twin %d", i, core, kind, addr, got, want)
				}
			case 4:
				a.WB(core, mem.WordRange(addr, 1), isa.LevelAuto)
				b.WB(core, mem.WordRange(addr, 1), isa.LevelAuto)
			case 5:
				a.INV(core, mem.WordRange(addr, 1), isa.LevelAuto)
				b.INV(core, mem.WordRange(addr, 1), isa.LevelAuto)
			case 6:
				a.INVAll(core, true, isa.LevelAuto)
				b.INVAll(core, true, isa.LevelAuto)
			case 7:
				a.WBAll(core, true, isa.LevelAuto)
				b.WBAll(core, true, isa.LevelAuto)
			case 8:
				a.EpochBoundary(core)
				b.EpochBoundary(core)
			default:
				a.INVAll(core, false, isa.LevelAuto)
				b.INVAll(core, false, isa.LevelAuto)
			}
			if a.Fingerprint() != b.Fingerprint() || !observe(a).equal(observe(b)) {
				t.Fatalf("op %d (%#x): the twins diverged", i, x)
			}
		}
	})
}

// TestPrivateRefusesUnderFaultsOrRecorder: a fault plan consumes its
// cursors on hit paths and a recorder samples buffer occupancy there, so
// with either attached even a plain L1 hit must take the scheduled path.
func TestPrivateRefusesUnderFaultsOrRecorder(t *testing.T) {
	plan, err := faultinject.Parse("ieb-lie@1")
	if err != nil {
		t.Fatal(err)
	}
	for name, attach := range map[string]func(h *Hierarchy){
		"faults":   func(h *Hierarchy) { h.SetFaults(faultinject.NewState(plan)) },
		"recorder": func(h *Hierarchy) { h.SetObs(obs.New(obs.Config{})) },
	} {
		h := privateTwin(0)
		h.Store(0, 0x1000, 7)
		if v, ok := h.Private(0, isa.OpLoad, 0x1000, 0); !ok || v != 7 {
			t.Fatalf("%s: plain L1 hit refused before attaching (%d, %v)", name, v, ok)
		}
		attach(h)
		if _, ok := h.Private(0, isa.OpLoad, 0x1000, 0); ok {
			t.Errorf("%s: Private accepted a load", name)
		}
		if _, ok := h.Private(0, isa.OpStore, 0x1000, 8); ok {
			t.Errorf("%s: Private accepted a store", name)
		}
	}
}
