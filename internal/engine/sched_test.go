package engine

// Tests of the pluggable scheduler hook: an external policy that mimics
// the default order must reproduce the default run bit-for-bit, a fixed
// round-robin policy must be deterministic across repeats, candidate
// lists must arrive sorted by thread ID, and a negative pick must abort
// the run with a ScheduleAbortError (unwinding every guest goroutine).

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// minTimeSched reimplements the default policy (minimum local clock,
// thread-ID tie-break) through the external hook.
type minTimeSched struct{}

func (minTimeSched) Pick(cands []Candidate) int {
	best := 0
	for i, c := range cands[1:] {
		if c.Time < cands[best].Time {
			best = i + 1
		}
	}
	return best
}

// pickFunc adapts a function to the Scheduler interface.
type pickFunc func(cands []Candidate) int

func (f pickFunc) Pick(cands []Candidate) int { return f(cands) }

// schedGuests is a small two-thread producer/consumer program with both
// data ops and synchronization, enough to exercise blocking under an
// external scheduler.
func schedGuests() []Guest {
	const x, y = 0x100, 0x200
	producer := func(p Proc) {
		p.Store(x, 7)
		p.WB(mem.WordRange(x, 1))
		p.FlagSet(1, 1)
		p.Store(y, 9)
		p.Compute(10)
	}
	consumer := func(p Proc) {
		p.FlagWait(1, 1)
		p.INV(mem.WordRange(x, 1))
		p.Load(x)
		p.Load(y)
	}
	return []Guest{producer, consumer}
}

func TestSchedulerMimicsDefault(t *testing.T) {
	def, err := New(newNullHierarchy(), schedGuests()).Run()
	if err != nil {
		t.Fatal(err)
	}
	e := New(newNullHierarchy(), schedGuests())
	e.SetScheduler(minTimeSched{})
	ext, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, ext) {
		t.Errorf("external min-time scheduler diverges from default:\ndefault:  %+v\nexternal: %+v", def, ext)
	}
}

func TestSchedulerCandidatesSortedAndDeterministic(t *testing.T) {
	run := func() (*Result, [][]int) {
		var trace [][]int
		e := New(newNullHierarchy(), schedGuests())
		e.SetScheduler(pickFunc(func(cands []Candidate) int {
			ids := make([]int, len(cands))
			for i, c := range cands {
				ids[i] = c.Thread
				if i > 0 && cands[i-1].Thread >= c.Thread {
					t.Fatalf("candidates not sorted by thread ID: %v", cands)
				}
				if c.Op.Kind < 0 || c.Op.Kind >= isa.NumOpKinds {
					t.Fatalf("candidate carries invalid op %v", c.Op)
				}
			}
			trace = append(trace, ids)
			return len(cands) - 1 // always prefer the highest thread ID
		}))
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, trace
	}
	r1, t1 := run()
	r2, t2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same schedule, different results: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Errorf("same policy, different candidate traces: %v vs %v", t1, t2)
	}
}

func TestSchedulerAbort(t *testing.T) {
	const budget = 3
	steps := 0
	e := New(newNullHierarchy(), schedGuests())
	e.SetScheduler(pickFunc(func(cands []Candidate) int {
		if steps >= budget {
			return -1
		}
		steps++
		return 0
	}))
	_, err := e.Run()
	var abort *ScheduleAbortError
	if !errors.As(err, &abort) {
		t.Fatalf("aborted run returned %v, want *ScheduleAbortError", err)
	}
	if abort.Step != budget {
		t.Errorf("abort at decision %d, want %d", abort.Step, budget)
	}
	if abort.ErrorKind() != "sched-abort" {
		t.Errorf("ErrorKind = %q, want sched-abort", abort.ErrorKind())
	}
}

func TestSchedulerOutOfRangePickFails(t *testing.T) {
	e := New(newNullHierarchy(), schedGuests())
	e.SetScheduler(pickFunc(func(cands []Candidate) int { return len(cands) }))
	if _, err := e.Run(); err == nil {
		t.Fatal("out-of-range pick accepted")
	}
}

// pickAudit is a Scheduler over the incoherent hierarchy it wraps, which
// offers Private. It counts its decisions and records the op it picked;
// the hierarchy methods the guests reach check that the op that then
// executes is that op. Private counts the L1 hits it accepts.
type pickAudit struct {
	*core.Hierarchy
	t        *testing.T
	picks    int64
	picked   Candidate
	pending  bool
	accepted int64
}

func (a *pickAudit) Pick(cands []Candidate) int {
	if a.pending && a.picked.Op.Kind != isa.OpCompute {
		a.t.Errorf("decision %d: picked %v on thread %d, which never reached the hierarchy", a.picks-1, a.picked.Op, a.picked.Thread)
	}
	a.picks++
	a.picked, a.pending = cands[len(cands)-1], true
	return len(cands) - 1
}

// ran checks that core's op of kind k (at addr, for loads and stores) is
// the op picked last.
func (a *pickAudit) ran(core int, k isa.OpKind, addr mem.Addr) {
	c := a.picked
	if !a.pending || c.Thread != core || c.Op.Kind != k || (k == isa.OpLoad || k == isa.OpStore) && c.Op.Addr != addr {
		a.t.Errorf("decision %d: thread %d ran %v at %#x, but the scheduler picked %v on thread %d", a.picks-1, core, k, addr, c.Op, c.Thread)
	}
	a.pending = false
}

func (a *pickAudit) Load(core int, addr mem.Addr) (mem.Word, int64) {
	a.ran(core, isa.OpLoad, addr)
	return a.Hierarchy.Load(core, addr)
}
func (a *pickAudit) Store(core int, addr mem.Addr, v mem.Word) int64 {
	a.ran(core, isa.OpStore, addr)
	return a.Hierarchy.Store(core, addr, v)
}
func (a *pickAudit) WB(core int, r mem.Range, lvl isa.Level) int64 {
	a.ran(core, isa.OpWB, 0)
	return a.Hierarchy.WB(core, r, lvl)
}
func (a *pickAudit) WBAll(core int, useMEB bool, lvl isa.Level) int64 {
	a.ran(core, isa.OpWBAll, 0)
	return a.Hierarchy.WBAll(core, useMEB, lvl)
}
func (a *pickAudit) INVAll(core int, lazy bool, lvl isa.Level) int64 {
	a.ran(core, isa.OpINVAll, 0)
	return a.Hierarchy.INVAll(core, lazy, lvl)
}

// EpochBoundary is the hierarchy call every sync op makes first.
func (a *pickAudit) EpochBoundary(core int) {
	if a.pending && a.picked.Op.Kind.IsSync() {
		a.ran(core, a.picked.Op.Kind, 0)
	} else {
		a.ran(core, isa.OpAcquire, 0)
	}
	a.Hierarchy.EpochBoundary(core)
}

func (a *pickAudit) Private(core int, kind isa.OpKind, addr mem.Addr, v mem.Word) (mem.Word, bool) {
	w, ok := a.Hierarchy.Private(core, kind, addr, v)
	if ok {
		a.accepted++
	}
	return w, ok
}

// TestSchedulerSeesEveryOp: under a Scheduler the engine offers every op
// it executes, and no op runs inline, although the hierarchy offers the
// private-op fast path and no Observer or recorder turns it off. The
// number of decisions equals the ops the run counts, and each executes
// the candidate's op. The same guests without a Scheduler run L1 hits
// inline, so the guests do exercise the fast path.
func TestSchedulerSeesEveryOp(t *testing.T) {
	guests := func() []Guest {
		gs := resetGuests(4)
		for i, g := range gs {
			own := mem.Addr(0x8000 + 0x100*i)
			gs[i] = func(p Proc) {
				for k := 0; k < 8; k++ {
					p.Store(own, mem.Word(k))
					p.Load(own)
					p.Compute(3)
				}
				g(p)
			}
		}
		return gs
	}
	ic := newInlineCounter(4)
	if _, err := New(ic, guests()).Run(); err != nil {
		t.Fatal(err)
	}
	if ic.inlined == 0 {
		t.Fatal("no op ran inline without a Scheduler")
	}

	a := &pickAudit{Hierarchy: newInlineCounter(4).Hierarchy, t: t}
	e := New(a, guests())
	e.SetScheduler(a)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var ops int64
	for _, n := range res.Ops {
		ops += n
	}
	if a.picks != ops {
		t.Errorf("%d decisions for %d ops", a.picks, ops)
	}
	if a.accepted != 0 {
		t.Errorf("%d ops ran inline under a Scheduler", a.accepted)
	}
}
