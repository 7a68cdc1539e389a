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
		// The word records a Reset keeps past the live ones, and the
		// clocks it keeps, are storage waiting for reuse, like a cleared
		// map's buckets.
		if len(reused.wordSlab) < len(fresh.wordSlab) {
			t.Errorf("threads=%d: Reset dropped word records: %d kept, %d live in a fresh oracle", threads, len(reused.wordSlab), len(fresh.wordSlab))
		}
		reused.wordSlab = reused.wordSlab[:reused.nwords]
		reused.spareClocks, fresh.spareClocks = nil, nil
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("threads=%d: reset oracle's state differs from a fresh one's", threads)
		}
	}
}

// fpEvent decodes one (op, arg) byte pair of a fuzz input into an event
// on a two-thread oracle: a thread, one of four words on two lines, a
// time and a value from small ranges, so that different streams reach
// the same states often. It reports false for the pair that means Reset.
func fpEvent(op, arg byte) (engine.Event, bool) {
	th := int(arg & 1)
	a := mem.Addr(0x100 + 0x40*int(arg>>1&1) + 4*int(arg>>2&1))
	ev := engine.Event{Kind: engine.EvOp, Thread: th, Time: int64(arg >> 3 & 3)}
	id := int(arg >> 5 & 1)
	switch op % 14 {
	case 0:
		ev.Op = isa.Op{Kind: isa.OpStore, Addr: a, Value: mem.Word(arg >> 5)}
	case 1:
		ev.Op = isa.Op{Kind: isa.OpStoreU, Addr: a, Value: mem.Word(arg >> 5)}
	case 2:
		ev.Op, ev.Value = isa.Op{Kind: isa.OpLoad, Addr: a}, mem.Word(arg>>5)
	case 3:
		ev.Op = isa.Op{Kind: isa.OpWB, Range: mem.WordRange(a, 1)}
	case 4:
		ev.Op = isa.Op{Kind: isa.OpWB, Range: mem.Range{Base: mem.LineAddr(a), Bytes: mem.LineBytes}}
	case 5:
		ev.Op = isa.Op{Kind: isa.OpWBAll}
	case 6:
		ev.Op = isa.Op{Kind: isa.OpINV, Range: mem.WordRange(a, 1)}
	case 7:
		ev.Op = isa.Op{Kind: isa.OpDMACopy, Addr: a ^ 0x40, Range: mem.WordRange(a, 1)}
	case 8:
		ev.Kind, ev.Op = engine.EvSyncIssue, isa.Op{Kind: isa.OpFlagSet, ID: id}
	case 9:
		ev.Kind, ev.Op = engine.EvSyncDone, isa.Op{Kind: isa.OpFlagWait, ID: id}
	case 10:
		ev.Kind, ev.Op = engine.EvSyncIssue, isa.Op{Kind: isa.OpRelease, ID: id}
	case 11:
		ev.Kind, ev.Op = engine.EvSyncDone, isa.Op{Kind: isa.OpAcquire, ID: id}
	case 12:
		ev.Kind, ev.Op = engine.EvSyncIssue, isa.Op{Kind: isa.OpBarrier, ID: id}
	case 13:
		ev.Kind, ev.Op = engine.EvSyncDone, isa.Op{Kind: isa.OpBarrier, ID: id}
	}
	return ev, op != 0xff
}

// FuzzFingerprintMatchesReference: Fingerprint partitions oracle states
// exactly as the sorted-key ReferenceFingerprint does. The input is a
// sequence of (op, arg) byte pairs, each an event (see fpEvent), a final
// check against an all-zero memory (op 0xfe), or a Reset (op 0xff), all
// on one two-thread oracle; the state after every step of every stream
// joins one table, and any two of them must have equal fingerprints
// exactly when their reference fingerprints are equal.
func FuzzFingerprintMatchesReference(f *testing.F) {
	const t0a, t1a = 0, 1 // arg: thread 0 / thread 1, word 0x100, time 0, value 0
	// Two orders of a write-back and a store by thread 0, each followed by
	// a flag handoff and thread 1's overwrite: the states differ only in
	// thread 0's unpublished set.
	f.Add([]byte{3, t0a, 0, t0a, 8, t0a, 9, t1a, 0, t1a, 0xff, 0, 0, t0a, 3, t0a, 8, t0a, 9, t1a, 0, t1a})
	f.Add([]byte{0, 0x21, 0, 0x20, 2, 0x01, 0xfe, 0, 12, 0, 12, 1, 13, 0, 13, 1, 7, 0x02, 10, 0, 11, 1, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		o := New(2)
		byNew, byRef := map[uint64]uint64{}, map[uint64]uint64{}
		check := func(step int) {
			n, r := o.Fingerprint(), o.ReferenceFingerprint()
			if r0, ok := byNew[n]; ok && r0 != r {
				t.Fatalf("step %d: fingerprint %#x matches an earlier state whose reference fingerprint differs (%#x vs %#x)", step, n, r0, r)
			}
			if n0, ok := byRef[r]; ok && n0 != n {
				t.Fatalf("step %d: reference fingerprint %#x matches an earlier state whose fingerprint differs (%#x vs %#x)", step, r, n0, n)
			}
			byNew[n], byRef[r] = r, n
		}
		check(0)
		for i := 0; i+1 < len(prog); i += 2 {
			switch ev, ok := fpEvent(prog[i], prog[i+1]); {
			case !ok:
				o.Reset(2)
			case prog[i] == 0xfe:
				o.CheckFinal(mem.NewMemory())
			default:
				o.OnEvent(ev)
			}
			check(i/2 + 1)
		}
	})
}
