package oracle

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/mem"
)

// script drives one oracle through a history touching every piece of
// shadow state the fingerprint must cover: vector clocks, lock, flag,
// and barrier clocks, shadow words with concurrent-write sets,
// unpublished sets, last-WB/INV sites, and a recorded violation (which
// populates the reported filter and the totals).
func script() *Oracle {
	o := New(2)
	store(o, 0, 0x100, 7)
	store(o, 1, 0x100, 9) // concurrent writer -> conc set
	wbRange(o, 0, mem.WordRange(0x100, 1))
	o.OnEvent(opEv(0, isa.Op{Kind: isa.OpINV, Range: mem.WordRange(0x200, 1)}, 0))
	o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: 0, Op: isa.Op{Kind: isa.OpRelease, ID: 1}})
	o.OnEvent(engine.Event{Kind: engine.EvSyncDone, Thread: 1, Op: isa.Op{Kind: isa.OpAcquire, ID: 1}})
	flagSet(o, 0, 3)
	flagWaitDone(o, 1, 3)
	o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: 0, Op: isa.Op{Kind: isa.OpBarrier, ID: 2}})
	loadEv(o, 1, 0x100, 3) // synchronized stale read -> violation + reported
	return o
}

func TestFingerprintDeterministic(t *testing.T) {
	if a, b := script().Fingerprint(), script().Fingerprint(); a != b {
		t.Fatalf("identical histories fingerprint differently: %#x vs %#x", a, b)
	}
	if script().Total() != 1 {
		t.Fatal("script is expected to record exactly one violation")
	}
}

// TestFingerprintSensitivity: each shadow-state dimension separates
// states. The dedup table must never merge two explorer states whose
// oracles would verdict the future differently.
func TestFingerprintSensitivity(t *testing.T) {
	base := New(2).Fingerprint()
	seen := map[uint64]string{0: "zero"}
	record := func(name string, build func() *Oracle) {
		fp := build().Fingerprint()
		if fp == base {
			t.Errorf("%s: fingerprint equals the empty oracle's", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
	record("store", func() *Oracle { o := New(2); store(o, 0, 0x100, 7); return o })
	record("store other value", func() *Oracle { o := New(2); store(o, 0, 0x100, 8); return o })
	record("store other thread", func() *Oracle { o := New(2); store(o, 1, 0x100, 7); return o })
	record("published", func() *Oracle {
		o := New(2)
		store(o, 0, 0x100, 7)
		wbRange(o, 0, mem.WordRange(0x100, 1))
		return o
	})
	record("flag clock", func() *Oracle { o := New(2); flagSet(o, 0, 3); return o })
	record("other flag", func() *Oracle { o := New(2); flagSet(o, 0, 4); return o })
	record("lock clock", func() *Oracle {
		o := New(2)
		o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: 0, Op: isa.Op{Kind: isa.OpRelease, ID: 3}})
		return o
	})
	record("barrier clock", func() *Oracle {
		o := New(2)
		o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: 0, Op: isa.Op{Kind: isa.OpBarrier, ID: 3}})
		return o
	})
	record("full script", script)
}

// TestFingerprintViolationStateCovered: two oracles that agree on every
// clock but differ in whether a violation was already reported must not
// merge — the report filter suppresses duplicate findings, so it shapes
// future verdicts.
func TestFingerprintViolationStateCovered(t *testing.T) {
	quiet := func() *Oracle {
		o := New(2)
		store(o, 0, 0x100, 7)
		wbRange(o, 0, mem.WordRange(0x100, 1))
		flagSet(o, 0, 3)
		flagWaitDone(o, 1, 3)
		return o
	}
	clean, violated := quiet(), quiet()
	loadEv(violated, 1, 0x100, 7) // fresh read: no violation
	loadEv(clean, 1, 0x100, 7)
	a, b := clean.Fingerprint(), violated.Fingerprint()
	if a != b {
		t.Fatalf("identical clean histories differ: %#x vs %#x", a, b)
	}
	loadEv(violated, 1, 0x100, 0) // stale read -> violation recorded
	if violated.Fingerprint() == a {
		t.Error("recorded violation does not reach the fingerprint")
	}
}

// TestResetMatchesNew: an oracle Reset after a history that recorded a
// stale read and a lost update, with a fault state attached, must be
// indistinguishable from a fresh one: fed the same second history, both
// report equal fingerprints, violations, totals and CheckFinal findings,
// whether the thread count stays or changes.
func TestResetMatchesNew(t *testing.T) {
	second := func(o *Oracle, threads int) {
		for th := 0; th < threads; th++ {
			store(o, th, mem.Addr(0x500+64*th), mem.Word(10+th))
		}
		flagSet(o, 0, 3)
		flagWaitDone(o, threads-1, 3)
		loadEv(o, threads-1, 0x500, 4) // synchronized stale read
		o.OnEvent(engine.Event{Kind: engine.EvSyncIssue, Thread: 0, Op: isa.Op{Kind: isa.OpBarrier, ID: 2}})
	}
	for _, threads := range []int{2, 3, 1} {
		reused := script()
		store(reused, 0, 0x140, 5)
		reused.SetFaults(faultinject.NewState(faultinject.MustParse("drop-wb@1")))
		reused.CheckFinal(mem.NewMemory()) // lost updates: memory holds zeros
		if reused.Total() < 2 {
			t.Fatalf("first history recorded %d violations, want a stale read and a lost update", reused.Total())
		}
		reused.Reset(threads)
		fresh := New(threads)
		second(reused, threads)
		second(fresh, threads)
		for _, o := range []*Oracle{reused, fresh} {
			m := mem.NewMemory()
			m.WriteWord(0x500, 10)
			o.CheckFinal(m)
		}
		if a, b := reused.Fingerprint(), fresh.Fingerprint(); a != b {
			t.Errorf("threads=%d: fingerprint after Reset %#x, fresh %#x", threads, a, b)
		}
		if a, b := reused.Total(), fresh.Total(); a != b || a == 0 {
			t.Errorf("threads=%d: Total after Reset %d, fresh %d (want equal and non-zero)", threads, a, b)
		}
		if a, b := reused.Violations(), fresh.Violations(); !reflect.DeepEqual(a, b) {
			t.Errorf("threads=%d: violations after Reset %v, fresh %v", threads, a, b)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("threads=%d: reset oracle's state differs from a fresh one's", threads)
		}
	}
}
