package mesi

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

// privateTwin builds the machine FuzzMesiPrivateMatchesLoadStore drives:
// two blocks of two cores over one L3 bank, with caches so small that the
// fuzzer's eight lines keep evicting L1 and L2 lines (inclusive recalls)
// and L3 lines (block recalls).
func privateTwin() *Hierarchy {
	return New(topo.NewCustom(2, 2, 1, topo.DefaultParams()), levels.Config{
		L1: cache.Config{Bytes: 256, Ways: 2},
		L2: cache.Config{Bytes: 512, Ways: 2},
		L3: cache.Config{Bytes: 512, Ways: 2},
	})
}

// fuzzAddr decodes one fuzz byte's address: bits 4-6 pick one of eight
// lines, four to a set in every cache level, and bits 2-3 a word in it.
func fuzzAddr(x byte) mem.Addr {
	i := int(x >> 4 & 7)
	return mem.Addr(0x1000 + (i&3)*0x100 + (i>>2)*0x40 + int(x>>2&3)*4)
}

// observed is what Private may change besides the fingerprinted state:
// the cache event counters and the mesh traffic.
type observed struct {
	l1, l2, l3 cache.Stats
	traffic    stats.Traffic
}

func observe(h *Hierarchy) observed {
	o := observed{l3: h.L3.Stats(), traffic: h.Traffic()}
	o.l1, o.l2 = h.CacheStats()
	return o
}

// FuzzMesiPrivateMatchesLoadStore holds MESI's Private to Load and Store.
// Two hierarchies run the same stream of loads and stores, each from any
// of the four cores, so other cores' invalidations, downgrades,
// migratory grants and L2/L3 recalls run between one core's hits. Before
// each op the first hierarchy tries Private. A refusal must leave its
// fingerprint and counters unchanged, and the op then goes through
// Load/Store on both. An acceptance must return what Load returns on the
// twin, which must expose no latency, and leave the two in the same
// state. Every op must also keep CheckInvariants, whose ownership check
// is what lets a store hit skip the directory.
func FuzzMesiPrivateMatchesLoadStore(f *testing.F) {
	// Bit 7 picks store over load, bits 0-1 the core; see fuzzAddr.
	f.Add([]byte{0x00, 0x00, 0x80, 0x84, 0x80, 0x01, 0x00, 0x01, 0x81, 0x00})
	f.Add([]byte{0x10, 0x11, 0x10, 0x90, 0x91, 0x90, 0x12, 0x92, 0x10, 0x13, 0x10})
	f.Add([]byte{0x20, 0x30, 0x20, 0xa4, 0x60, 0x70, 0x20, 0x22, 0x20, 0xa2, 0x20})
	f.Add([]byte{0x80, 0x82, 0x80, 0x01, 0x81, 0x81, 0x03, 0x83, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return
		}
		a, b := privateTwin(), privateTwin()
		for i, x := range prog {
			core, addr := int(x&3), fuzzAddr(x)
			kind := isa.OpLoad
			if x&0x80 != 0 {
				kind = isa.OpStore
			}
			v := mem.Word(i + 1)
			fp, seen := a.Fingerprint(), observe(a)
			got, ok := a.Private(core, kind, addr, v)
			if !ok && (a.Fingerprint() != fp || observe(a) != seen) {
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
			if a.Fingerprint() != b.Fingerprint() || observe(a) != observe(b) {
				t.Fatalf("op %d (%#x): the twins diverged", i, x)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%#x): %v", i, x, err)
			}
		}
	})
}

// TestPrivateAcceptsHitsOnly walks one line through every L1 state and
// checks which private ops each one accepts.
func TestPrivateAcceptsHitsOnly(t *testing.T) {
	h := privateTwin()
	a := mem.Addr(0x1000)
	accepts := func(core int, kind isa.OpKind) bool {
		_, ok := h.Private(core, kind, a, 9)
		return ok
	}
	if accepts(0, isa.OpLoad) || accepts(0, isa.OpStore) {
		t.Fatal("Private accepted a miss")
	}
	h.Load(0, a) // sole reader: E
	if !accepts(0, isa.OpLoad) || !accepts(0, isa.OpStore) {
		t.Fatal("Private refused a hit in E")
	}
	if st := h.L1[0].Peek(a).State; st != cache.Modified {
		t.Fatalf("store hit left the line in %v, want M", st)
	}
	h.Load(1, a) // forwards core 0's dirty copy: migrates ownership to core 1
	if accepts(0, isa.OpLoad) {
		t.Fatal("Private accepted a load of an invalidated line")
	}
	if v, ok := h.Private(1, isa.OpLoad, a, 0); !ok || v != 9 {
		t.Fatalf("migratory grantee's load = (%d, %v), want (9, true)", v, ok)
	}
	h.Load(0, a) // clean forward: both S
	if !accepts(0, isa.OpLoad) || !accepts(1, isa.OpLoad) {
		t.Fatal("Private refused a load hit in S")
	}
	if accepts(0, isa.OpStore) {
		t.Fatal("Private accepted a store to an S line (an upgrade)")
	}
}
