package oracle

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

// ---- Unit tests driving the event stream directly ----------------------

func opEv(thread int, op isa.Op, v mem.Word) engine.Event {
	return engine.Event{Kind: engine.EvOp, Thread: thread, Op: op, Value: v}
}

func store(o *Oracle, thread int, a mem.Addr, v mem.Word) {
	o.OnEvent(opEv(thread, isa.Op{Kind: isa.OpStore, Addr: a, Value: v}, 0))
}

func loadEv(o *Oracle, thread int, a mem.Addr, got mem.Word) {
	o.OnEvent(opEv(thread, isa.Op{Kind: isa.OpLoad, Addr: a}, got))
}

func flagSet(o *Oracle, thread, id int) {
	o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: thread, Op: isa.Op{Kind: isa.OpFlagSet, ID: id}})
}

func flagWaitDone(o *Oracle, thread, id int) {
	o.OnEvent(engine.Event{Kind: engine.EvSyncDone, Thread: thread, Op: isa.Op{Kind: isa.OpFlagWait, ID: id}})
}

func wbRange(o *Oracle, thread int, r mem.Range) {
	o.OnEvent(opEv(thread, isa.Op{Kind: isa.OpWB, Range: r}, 0))
}

func TestRacyReadNotFlagged(t *testing.T) {
	o := New(2)
	store(o, 0, 0x100, 7)
	// Thread 1 has no happens-before edge from the write: both the old
	// and the new value are legal, so even a stale 0 passes.
	loadEv(o, 1, 0x100, 0)
	loadEv(o, 1, 0x100, 7)
	if o.Total() != 0 {
		t.Fatalf("racy reads flagged: %v", o.Violations())
	}
}

func TestOrderedStaleReadFlagged(t *testing.T) {
	o := New(2)
	store(o, 0, 0x100, 7)
	wbRange(o, 0, mem.WordRange(0x100, 1))
	flagSet(o, 0, 3)
	flagWaitDone(o, 1, 3)
	loadEv(o, 1, 0x100, 0) // stale: the write is hb-visible and published
	if o.Total() != 1 {
		t.Fatalf("Total = %d, want 1", o.Total())
	}
	v := o.Violations()[0]
	if v.Class != MissingINV || v.Reader != 1 || v.Writer != 0 || v.Got != 0 || v.Want != 7 {
		t.Errorf("violation = %+v", v)
	}
	// The same address is not reported twice.
	loadEv(o, 1, 0x100, 0)
	if o.Total() != 1 {
		t.Errorf("duplicate address reported: Total = %d", o.Total())
	}
}

func TestUnpublishedStaleReadIsMissingWB(t *testing.T) {
	o := New(2)
	store(o, 0, 0x100, 7)
	// No WB: the write is never published.
	flagSet(o, 0, 3)
	flagWaitDone(o, 1, 3)
	loadEv(o, 1, 0x100, 0)
	if o.Total() != 1 || o.Violations()[0].Class != MissingWB {
		t.Fatalf("want one missing-wb, got %v", o.Violations())
	}
	if !strings.Contains(o.Violations()[0].Site, "thread 0") {
		t.Errorf("site should indict the writer: %q", o.Violations()[0].Site)
	}
}

func TestConcurrentWritesAllLegal(t *testing.T) {
	o := New(3)
	store(o, 0, 0x200, 1)
	store(o, 1, 0x200, 2) // concurrent with thread 0's write
	flagSet(o, 0, 0)
	flagSet(o, 1, 1)
	flagWaitDone(o, 2, 0)
	flagWaitDone(o, 2, 1)
	loadEv(o, 2, 0x200, 1)
	loadEv(o, 2, 0x200, 2)
	if o.Total() != 0 {
		t.Fatalf("legal racy values flagged: %v", o.Violations())
	}
	loadEv(o, 2, 0x200, 3)
	if o.Total() != 1 {
		t.Fatalf("illegal value not flagged")
	}
}

func TestBarrierOrdersWrites(t *testing.T) {
	o := New(2)
	store(o, 0, 0x300, 5)
	wbRange(o, 0, mem.WordRange(0x300, 1))
	for th := 0; th < 2; th++ {
		o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: th, Op: isa.Op{Kind: isa.OpBarrier, ID: 9}})
	}
	for th := 0; th < 2; th++ {
		o.OnEvent(engine.Event{Kind: engine.EvSyncDone, Thread: th, Op: isa.Op{Kind: isa.OpBarrier, ID: 9}})
	}
	loadEv(o, 1, 0x300, 0)
	if o.Total() != 1 || o.Violations()[0].Class != MissingINV {
		t.Fatalf("stale read across barrier not flagged: %v", o.Violations())
	}
	// A second barrier round starts from a clean accumulator: a write
	// after this round must not leak backwards. (Just exercise the reset.)
	store(o, 0, 0x304, 6)
}

func TestCheckFinalLostUpdate(t *testing.T) {
	o := New(1)
	store(o, 0, 0x400, 5)
	m := mem.NewMemory()
	o.CheckFinal(m) // memory still holds 0
	if o.Total() != 1 {
		t.Fatalf("Total = %d, want 1", o.Total())
	}
	v := o.Violations()[0]
	if v.Class != LostUpdate || v.Got != 0 || v.Want != 5 {
		t.Errorf("violation = %+v", v)
	}
	err := o.Err()
	if err == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
	type kinder interface{ ErrorKind() string }
	if k, ok := err.(kinder); !ok || k.ErrorKind() != "coherence" {
		t.Errorf("ErrorKind = %v, want coherence", err)
	}
}

func TestCheckFinalCleanMemory(t *testing.T) {
	o := New(1)
	store(o, 0, 0x400, 5)
	wbRange(o, 0, mem.WordRange(0x400, 1))
	m := mem.NewMemory()
	m.WriteWord(0x400, 5)
	o.CheckFinal(m)
	if o.Err() != nil {
		t.Fatalf("clean final memory flagged: %v", o.Err())
	}
}

// TestLegalValuesUnwritten: a word no thread wrote is unconstrained, for
// loads and for the final memory image alike.
func TestLegalValuesUnwritten(t *testing.T) {
	o := New(2)
	loadEv(o, 0, 0x100, 42)
	m := mem.NewMemory()
	m.WriteWord(0x100, 9)
	o.CheckFinal(m)
	if o.Total() != 0 {
		t.Fatalf("unwritten word constrained: %v", o.Violations())
	}
}

// TestLegalValuesRespectHappensBefore: the writer itself is ordered after
// its own write, and any byte address of a word checks that word.
func TestLegalValuesRespectHappensBefore(t *testing.T) {
	o := New(2)
	store(o, 0, 0x100, 7)
	loadEv(o, 0, 0x100, 7)
	if o.Total() != 0 {
		t.Fatalf("writer's own value flagged: %v", o.Violations())
	}
	loadEv(o, 0, 0x100, 0)
	if o.Total() != 1 {
		t.Fatalf("writer's stale read of its own write: Total = %d, want 1", o.Total())
	}
	store(o, 0, 0x200, 3)
	flagSet(o, 0, 3)
	flagWaitDone(o, 1, 3)
	loadEv(o, 1, 0x202, 3)
	if o.Total() != 1 {
		t.Fatalf("mid-word read of the ordered value flagged: %v", o.Violations())
	}
	loadEv(o, 1, 0x202, 0)
	if o.Total() != 2 || o.Violations()[1].Addr != 0x200 {
		t.Fatalf("mid-word stale read not flagged at its word: %v", o.Violations())
	}
}

// TestLegalValuesConcurrentWritesAndDedup: drained memory may hold any of
// a word's concurrent last writes, and a value two threads both wrote is
// one legal value.
func TestLegalValuesConcurrentWritesAndDedup(t *testing.T) {
	final := func(got mem.Word) int {
		o := New(3)
		store(o, 0, 0x200, 1)
		store(o, 1, 0x200, 2) // concurrent with thread 0's write
		store(o, 0, 0x300, 5)
		store(o, 1, 0x300, 5)
		m := mem.NewMemory()
		m.WriteWord(0x200, got)
		m.WriteWord(0x300, 5)
		o.CheckFinal(m)
		return o.Total()
	}
	for got, want := range map[mem.Word]int{1: 0, 2: 0, 3: 1} {
		if n := final(got); n != want {
			t.Errorf("final value %d: Total = %d, want %d", got, n, want)
		}
	}
}

// ---- Integration: injected fault ⇒ detected violation ------------------

// checkedRun executes guests on an intra-block incoherent hierarchy with
// the given fault plan, the oracle attached, and returns the oracle.
func checkedRun(t *testing.T, plan string, cfgMod func(*core.Config), guests []engine.Guest) *Oracle {
	t.Helper()
	m := topo.NewIntraBlock()
	cfg := core.Config{Config: levels.DefaultConfig(m)}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	h := core.New(m, cfg)
	st := faultinject.NewState(faultinject.MustParse(plan))
	h.SetFaults(st)
	orc := New(len(guests))
	orc.SetFaults(st)
	e := engine.New(h, guests)
	e.SetObserver(orc)
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	h.Drain()
	orc.CheckFinal(h.Memory())
	return orc
}

func TestInjectedFaultsAreDetected(t *testing.T) {
	const a = mem.Addr(0x1000)
	r := mem.WordRange(a, 1)

	// Producer/consumer pair correctly annotated for the incoherent
	// hierarchy: the only way the consumer can read stale data is an
	// injected fault.
	producerConsumer := []engine.Guest{
		func(p engine.Proc) { p.Store(a, 41); p.WB(r); p.FlagSet(0, 1) },
		func(p engine.Proc) { p.FlagWait(0, 1); p.INV(r); _ = p.Load(a) },
	}
	// Same, but the consumer caches the line before the handoff, so a
	// skipped INV leaves a stale copy to hit on.
	preCached := []engine.Guest{
		func(p engine.Proc) { p.Barrier(0); p.Store(a, 41); p.WB(r); p.FlagSet(0, 1) },
		func(p engine.Proc) { _ = p.Load(a); p.Barrier(0); p.FlagWait(0, 1); p.INV(r); _ = p.Load(a) },
	}
	// Epoch-style consumer: arms the IEB lazily instead of an eager INV.
	lazyConsumer := []engine.Guest{
		func(p engine.Proc) { p.Barrier(0); p.Store(a, 41); p.WB(r); p.FlagSet(0, 1) },
		func(p engine.Proc) { _ = p.Load(a); p.Barrier(0); p.FlagWait(0, 1); p.INVAllLazy(); _ = p.Load(a) },
	}
	// Two dirty lines but an MEB sabotaged to hold one: the MEB-served
	// WB ALL silently misses the second line.
	const a2 = mem.Addr(0x2000)
	mebPair := []engine.Guest{
		func(p engine.Proc) { p.Store(a, 41); p.Store(a2, 43); p.WBAllMEB(); p.FlagSet(0, 1) },
		func(p engine.Proc) { p.FlagWait(0, 1); p.INVAll(); _ = p.Load(a); _ = p.Load(a2) },
	}

	cases := []struct {
		name   string
		plan   string
		cfgMod func(*core.Config)
		guests []engine.Guest
		class  Class
		addr   mem.Addr
		site   string // substring the attribution must contain
	}{
		{"drop-wb", "drop-wb@0", nil, producerConsumer, MissingWB, a, "writer thread 0"},
		{"delay-wb", "delay-wb@0", nil, producerConsumer, MissingWB, a, "writer thread 0"},
		{"skip-inv", "skip-inv@0", nil, preCached, MissingINV, a, "reader thread 1"},
		{"ieb-lie", "ieb-lie@0", func(c *core.Config) { c.IEBEntries = 4 }, lazyConsumer, MissingINV, a, "reader thread 1"},
		{"meb-cap", "meb-cap=1", func(c *core.Config) { c.MEBEntries = 16 }, mebPair, MissingWB, a2, "writer thread 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orc := checkedRun(t, c.plan, c.cfgMod, c.guests)
			if orc.Total() == 0 {
				t.Fatalf("injected %s went undetected", c.plan)
			}
			v := orc.Violations()[0]
			if v.Class != c.class {
				t.Errorf("class = %s, want %s (%+v)", v.Class, c.class, v)
			}
			if v.Addr != c.addr {
				t.Errorf("addr = %#x, want %#x", uint32(v.Addr), uint32(c.addr))
			}
			if !strings.Contains(v.Site, c.site) {
				t.Errorf("site %q does not name the faulty site (%s)", v.Site, c.site)
			}
			// The faultless twin of every scenario is clean.
			clean := checkedRun(t, "", c.cfgMod, c.guests)
			if clean.Total() != 0 {
				t.Errorf("fault-free twin reported violations: %v", clean.Violations())
			}
		})
	}
}

func TestMEBFaultSparesCoveredLine(t *testing.T) {
	const a, a2 = mem.Addr(0x1000), mem.Addr(0x2000)
	got := make([]mem.Word, 2)
	guests := []engine.Guest{
		func(p engine.Proc) { p.Store(a, 41); p.Store(a2, 43); p.WBAllMEB(); p.FlagSet(0, 1) },
		func(p engine.Proc) {
			p.FlagWait(0, 1)
			p.INVAll()
			got[0] = p.Load(a)
			got[1] = p.Load(a2)
		},
	}
	orc := checkedRun(t, "meb-cap=1", func(c *core.Config) { c.MEBEntries = 16 }, guests)
	if got[0] != 41 {
		t.Errorf("covered line got %d, want 41", got[0])
	}
	if got[1] == 43 {
		t.Errorf("discarded line unexpectedly wrote back")
	}
	if orc.Total() != 1 || orc.Violations()[0].Addr != a2 {
		t.Errorf("want exactly the lost line flagged, got %v", orc.Violations())
	}
}

func TestDelayWBReachesMemoryAtDrain(t *testing.T) {
	const a = mem.Addr(0x1000)
	r := mem.WordRange(a, 1)
	m := topo.NewIntraBlock()
	h := core.New(m, core.Config{Config: levels.DefaultConfig(m)})
	h.SetFaults(faultinject.NewState(faultinject.MustParse("delay-wb@0")))
	guests := []engine.Guest{
		func(p engine.Proc) { p.Store(a, 41); p.WB(r); p.FlagSet(0, 1) },
		func(p engine.Proc) { p.FlagWait(0, 1); p.INV(r); _ = p.Load(a) },
	}
	if _, err := engine.New(h, guests).Run(); err != nil {
		t.Fatal(err)
	}
	h.Drain()
	if got := h.Memory().ReadWord(a); got != 41 {
		t.Errorf("delayed writeback lost at drain: memory holds %d, want 41", got)
	}
}
