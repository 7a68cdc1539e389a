package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/mesi"
	"repro/internal/stats"
	"repro/internal/topo"
)

func incoherent16() *core.Hierarchy {
	m := topo.NewIntraBlock()
	cfg := core.Config{Config: levels.DefaultConfig(m)}
	cfg.MEBEntries = 16
	cfg.IEBEntries = 4
	return core.New(m, cfg)
}

func coherent16() *mesi.Hierarchy {
	m := topo.NewIntraBlock()
	return mesi.New(m, levels.DefaultConfig(m))
}

// Interface conformance.
var (
	_ Hierarchy = (*core.Hierarchy)(nil)
	_ Hierarchy = (*mesi.Hierarchy)(nil)
)

func TestSingleThreadComputeAndMemory(t *testing.T) {
	h := incoherent16()
	var loaded mem.Word
	guests := []Guest{func(p Proc) {
		p.Compute(100)
		p.Store(0x1000, 7)
		loaded = p.Load(0x1000)
	}}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 7 {
		t.Errorf("loaded = %d", loaded)
	}
	if res.Cycles < 100 {
		t.Errorf("cycles = %d", res.Cycles)
	}
	if res.Stalls[stats.Busy] < 100 {
		t.Errorf("busy = %d", res.Stalls[stats.Busy])
	}
}

func TestFlagProducerConsumer(t *testing.T) {
	h := incoherent16()
	data := mem.Addr(0x2000)
	var got mem.Word
	guests := make([]Guest, 2)
	guests[0] = func(p Proc) {
		p.Compute(500)
		p.Store(data, 99)
		p.WB(mem.WordRange(data, 1))
		p.FlagSet(0, 1)
	}
	guests[1] = func(p Proc) {
		p.FlagWait(0, 1)
		p.INV(mem.WordRange(data, 1))
		got = p.Load(data)
	}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("consumer read %d, want 99", got)
	}
	// The consumer waited ~500 cycles on the flag.
	if res.PerThread[1][stats.FlagStall] < 400 {
		t.Errorf("flag stall = %d, want ~500", res.PerThread[1][stats.FlagStall])
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	h := incoherent16()
	n := 4
	guests := make([]Guest, n)
	for i := range guests {
		work := int64((i + 1) * 1000)
		guests[i] = func(p Proc) {
			p.Compute(work)
			p.Barrier(0)
			p.Compute(10)
		}
	}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 (1000 cycles of work) waits ~3000 at the barrier.
	if res.PerThread[0][stats.BarrierStall] < 2500 {
		t.Errorf("thread 0 barrier stall = %d", res.PerThread[0][stats.BarrierStall])
	}
	// The slowest thread barely waits.
	if res.PerThread[3][stats.BarrierStall] > 200 {
		t.Errorf("thread 3 barrier stall = %d", res.PerThread[3][stats.BarrierStall])
	}
}

func TestLockMutualExclusionAndStall(t *testing.T) {
	h := incoherent16()
	counter := mem.Addr(0x3000)
	n := 8
	guests := make([]Guest, n)
	for i := range guests {
		guests[i] = func(p Proc) {
			for k := 0; k < 5; k++ {
				p.Acquire(1)
				v := p.Load(counter)
				p.Compute(50)
				p.Store(counter, v+1)
				p.WB(mem.WordRange(counter, 1))
				p.Release(1)
				p.INV(mem.WordRange(counter, 1))
			}
		}
	}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	h.Drain()
	if got := h.Memory().ReadWord(counter); got != mem.Word(n*5) {
		t.Errorf("counter = %d, want %d", got, n*5)
	}
	if res.Stalls[stats.LockStall] == 0 {
		t.Error("contended lock produced no lock stall")
	}
}

// The crux of the paper: a critical-section counter is only correct on the
// incoherent machine when WB/INV accompany the lock; on the coherent
// machine it is correct without them.
func TestIncoherentCounterWithoutWBINVIsWrong(t *testing.T) {
	h := incoherent16()
	counter := mem.Addr(0x4000)
	n := 8
	guests := make([]Guest, n)
	for i := range guests {
		guests[i] = func(p Proc) {
			for k := 0; k < 5; k++ {
				p.Acquire(1)
				v := p.Load(counter)
				p.Store(counter, v+1)
				p.Release(1)
			}
		}
	}
	if _, err := New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	if got := h.Memory().ReadWord(counter); got == mem.Word(n*5) {
		t.Error("unannotated critical section was coherent on incoherent hardware")
	}
}

func TestCoherentCounterNeedsNoAnnotations(t *testing.T) {
	h := coherent16()
	counter := mem.Addr(0x4000)
	n := 8
	guests := make([]Guest, n)
	for i := range guests {
		guests[i] = func(p Proc) {
			for k := 0; k < 5; k++ {
				p.Acquire(1)
				v := p.Load(counter)
				p.Store(counter, v+1)
				p.Release(1)
			}
		}
	}
	if _, err := New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	if got := h.Memory().ReadWord(counter); got != mem.Word(n*5) {
		t.Errorf("coherent counter = %d, want %d", got, n*5)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, stats.Stalls, stats.Traffic) {
		h := incoherent16()
		counter := mem.Addr(0x5000)
		guests := make([]Guest, 16)
		for i := range guests {
			id := i
			guests[i] = func(p Proc) {
				p.Compute(int64(id * 13))
				for k := 0; k < 10; k++ {
					p.Acquire(2)
					v := p.Load(counter)
					p.Store(counter, v+1)
					p.WBAllMEB()
					p.Release(2)
					p.Barrier(0)
				}
			}
		}
		res, err := New(h, guests).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, res.Stalls, res.Traffic
	}
	c1, s1, t1 := run()
	c2, s2, t2 := run()
	if c1 != c2 || s1 != s2 || t1 != t2 {
		t.Errorf("nondeterministic: run1=(%d,%v,%v) run2=(%d,%v,%v)", c1, s1, t1, c2, s2, t2)
	}
}

func TestDeadlockDetection(t *testing.T) {
	h := incoherent16()
	guests := []Guest{
		func(p Proc) { p.Acquire(0); p.Acquire(1); p.Release(1); p.Release(0) },
		func(p Proc) { p.Acquire(1); p.Compute(1000); p.Acquire(0) },
	}
	_, err := New(h, guests).Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestGuestPanicSurfacesAsError(t *testing.T) {
	h := incoherent16()
	guests := []Guest{func(p Proc) {
		p.Compute(1)
		panic("boom")
	}}
	_, err := New(h, guests).Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want guest panic", err)
	}
}

func TestStallAttributionCategories(t *testing.T) {
	h := incoherent16()
	guests := []Guest{func(p Proc) {
		p.Store(0x6000, 1) // mem stall (cold miss)
		p.WBAll()          // wb stall
		p.INVAll()         // inv stall
	}}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerThread[0]
	if s[stats.MemStall] == 0 {
		t.Error("no mem stall recorded")
	}
	if s[stats.WBStall] == 0 {
		t.Error("no WB stall recorded")
	}
	if s[stats.INVStall] == 0 {
		t.Error("no INV stall recorded")
	}
	inv, wb, lock, barrier, rest := s.Figure9()
	if inv+wb+lock+barrier+rest != s.Total() {
		t.Error("figure9 breakdown does not conserve cycles")
	}
}

func TestUncachedOpsThroughEngine(t *testing.T) {
	h := incoherent16()
	var got mem.Word
	guests := []Guest{
		func(p Proc) { p.StoreU(0x7000, 5); p.FlagSet(0, 1) },
		func(p Proc) { p.FlagWait(0, 1); got = p.LoadU(0x7000) },
	}
	if _, err := New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("uncached read = %d", got)
	}
}

func TestOpCountsRecorded(t *testing.T) {
	h := incoherent16()
	guests := []Guest{func(p Proc) {
		p.Load(0x8000)
		p.Load(0x8000)
		p.Store(0x8000, 1)
		p.Barrier(0)
	}}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops[0] == 0 { // OpLoad
		t.Error("load ops not counted")
	}
}

// A reader that spins on a cacheable flag with INV (Figure 6b's data-race
// pattern) must still terminate: each INV+load refetches from the shared
// cache.
func TestDataRaceSpinWithINV(t *testing.T) {
	h := incoherent16()
	flag := mem.Addr(0x9000)
	data := mem.Addr(0x9100)
	var got mem.Word
	guests := []Guest{
		func(p Proc) {
			p.Store(data, 1234)
			p.WB(mem.WordRange(data, 1))
			p.Store(flag, 1)
			p.WB(mem.WordRange(flag, 1))
		},
		func(p Proc) {
			for {
				p.INV(mem.WordRange(flag, 1))
				if p.Load(flag) == 1 {
					break
				}
				p.Compute(100)
			}
			p.INV(mem.WordRange(data, 1))
			got = p.Load(data)
		},
	}
	if _, err := New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Errorf("raced data = %d", got)
	}
}

// Cycle conservation: each thread's stall categories sum exactly to its
// finish time (no cycles invented or lost by the attribution).
func TestStallConservation(t *testing.T) {
	h := incoherent16()
	guests := make([]Guest, 16)
	for i := range guests {
		id := i
		guests[i] = func(p Proc) {
			p.Compute(int64(100 + id*7))
			for k := 0; k < 3; k++ {
				p.Acquire(1)
				v := p.Load(0xa000)
				p.Store(0xa000, v+1)
				p.WBAll()
				p.Release(1)
				p.Barrier(0)
				p.INVAll()
			}
		}
	}
	res, err := New(h, guests).Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.PerThread {
		if s.Total() > res.Cycles {
			t.Errorf("thread %d stall total %d exceeds run cycles %d", i, s.Total(), res.Cycles)
		}
	}
	// The longest thread's stalls account for the full run.
	var maxTotal int64
	for _, s := range res.PerThread {
		if s.Total() > maxTotal {
			maxTotal = s.Total()
		}
	}
	if maxTotal != res.Cycles {
		t.Errorf("max per-thread total %d != run cycles %d", maxTotal, res.Cycles)
	}
}

// Distinct barrier IDs are independent synchronization episodes.
func TestMultipleBarrierIDs(t *testing.T) {
	h := incoherent16()
	order := make([]int, 0, 8)
	guests := make([]Guest, 4)
	for i := range guests {
		id := i
		guests[i] = func(p Proc) {
			p.Compute(int64(id * 100))
			p.Barrier(5)
			if id == 0 {
				order = append(order, 5)
			}
			p.Compute(10)
			p.Barrier(9)
			if id == 0 {
				order = append(order, 9)
			}
		}
	}
	if _, err := New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 5 || order[1] != 9 {
		t.Errorf("barrier episodes = %v", order)
	}
}

// The two hierarchies produce identical *functional* results for the same
// annotated program (timing differs, values must not).
func TestFunctionalEquivalenceAcrossHierarchies(t *testing.T) {
	prog := func(p Proc) {
		me := p.ID()
		p.Store(mem.Addr(0x1000+me*4), mem.Word(me*me))
		p.WBAll()
		p.Barrier(0)
		p.INVAll()
		var sum mem.Word
		for i := 0; i < p.NumThreads(); i++ {
			sum += p.Load(mem.Addr(0x1000 + i*4))
		}
		p.Store(mem.Addr(0x2000+me*4), sum)
	}
	results := map[string]mem.Word{}
	for name, h := range map[string]Hierarchy{"incoherent": incoherent16(), "coherent": coherent16()} {
		guests := make([]Guest, 16)
		for i := range guests {
			guests[i] = prog
		}
		if _, err := New(h, guests).Run(); err != nil {
			t.Fatal(err)
		}
		h.Drain()
		results[name] = h.Memory().ReadWord(0x2000)
	}
	if results["incoherent"] != results["coherent"] {
		t.Errorf("results diverge: %v", results)
	}
	want := mem.Word(0)
	for i := 0; i < 16; i++ {
		want += mem.Word(i * i)
	}
	if results["coherent"] != want {
		t.Errorf("sum = %d, want %d", results["coherent"], want)
	}
}

// ID and NumThreads are exposed correctly to every guest.
func TestProcIdentity(t *testing.T) {
	h := incoherent16()
	seen := make([]int, 5)
	guests := make([]Guest, 5)
	for i := range guests {
		i := i
		guests[i] = func(p Proc) {
			if p.NumThreads() != 5 {
				panic("wrong NumThreads")
			}
			seen[i] = p.ID()
		}
	}
	if _, err := New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range seen {
		if id != i {
			t.Errorf("guest %d saw ID %d", i, id)
		}
	}
}
