package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/mesi"
	"repro/internal/topo"
)

// inlineCounter is a real incoherent hierarchy — nullHierarchy has no
// private state, so it never takes the private-op fast path — that
// counts the ops Private accepted, so tests can see the path engage.
type inlineCounter struct {
	*core.Hierarchy
	inlined int64
}

func newInlineCounter(cores int) *inlineCounter {
	m := topo.NewCustom(1, cores, 0, topo.DefaultParams())
	return &inlineCounter{Hierarchy: core.New(m, core.Config{
		L1: cache.Config{Bytes: 4 << 10, Ways: 4},
		L2: cache.Config{Bytes: 32 << 10, Ways: 8},
	})}
}

func (c *inlineCounter) Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool) {
	w, ok := c.Hierarchy.Private(core, kind, a, v)
	if ok {
		c.inlined++
	}
	return w, ok
}

// TestWatchdogTripsOnStaleFlagSpin is the missing-INV livelock on a real
// hierarchy: thread 0 spins on its L1 copy of a flag that thread 1 has
// set and written back, and with no INV it never sees the new value.
// Every probe after the first is a private L1 hit the guest runs inline,
// yet the watchdog must still trip after exactly NoProgressLimit executed
// ops, as in TestWatchdogTripPinned.
func TestWatchdogTripsOnStaleFlagSpin(t *testing.T) {
	const limit = 5000
	h := newInlineCounter(2)
	flag := mem.Addr(0x2000)
	var ops int64 // ops called, counted before each call
	guests := []Guest{
		func(p Proc) {
			for {
				ops++
				if p.Load(flag) != 0 {
					return
				}
			}
		},
		func(p Proc) {
			ops++
			p.Compute(50)
			ops++
			p.Store(flag, 1)
			ops++
			p.WB(mem.WordRange(flag, 1))
			ops++
			p.FlagWait(0, 1) // never set: parks for good
		},
	}
	e := New(h, guests)
	e.NoProgressLimit = limit
	_, err := e.Run()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want LivelockError", err)
	}
	if ll.Steps != limit {
		t.Errorf("Steps = %d, want exactly %d", ll.Steps, limit)
	}
	if ops != limit {
		t.Errorf("executed %d ops before the trip, want %d", ops, limit)
	}
	if !reflect.DeepEqual(ll.Blocked, []int{1}) {
		t.Errorf("Blocked = %v, want [1]", ll.Blocked)
	}
	if h.inlined < limit/2 {
		t.Errorf("only %d of %d ops ran inline; the fast path did not engage", h.inlined, limit)
	}
	if p := h.ProbeWord(0, flag); !p.L1Present || p.L1Val != 0 || p.L2Val != 1 {
		t.Errorf("probe %+v: want a stale 0 in core 0's L1 over a 1 in the L2", p)
	}
}

// TestCancelStopsStaleFlagSpin: a canceled ctx must stop a run whose
// guest spins on private L1 hits within one poll window. The inline
// budget never carries a resume past the next poll, so the guest makes
// at most ctxPollMask+1 ops after the one that canceled.
func TestCancelStopsStaleFlagSpin(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := newInlineCounter(1)
	flag := mem.Addr(0x2000)
	const cancelAt = 1000
	var ops int64
	guests := []Guest{func(p Proc) {
		for {
			if ops++; ops == cancelAt {
				cancel()
			}
			if p.Load(flag) != 0 {
				return
			}
		}
	}}
	_, err := New(h, guests).RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := ops - cancelAt; after > ctxPollMask+1 {
		t.Errorf("guest made %d ops after the cancel, want at most %d", after, ctxPollMask+1)
	}
	if h.inlined == 0 {
		t.Error("no op ran inline; the fast path did not engage")
	}
}

// horizonProbe wraps a hierarchy and counts the ops its Private accepted
// per core, and how many of those the thread ran at or past the run-queue
// minimum, where the scheduler would have run another thread's op first.
type horizonProbe struct {
	privateTestHierarchy
	e                *Engine
	beyond           int64
	accepted, called [2]int64
}

type privateTestHierarchy interface {
	Hierarchy
	PrivateHierarchy
}

func (p *horizonProbe) Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool) {
	p.called[core]++
	w, ok := p.privateTestHierarchy.Private(core, kind, a, v)
	if ok {
		p.accepted[core]++
		if m := p.e.rq.peek(); m != nil && !runqLess(p.e.ts[core], m) {
			p.beyond++
		}
	}
	return w, ok
}

// horizonGuests: both threads first miss on x, which leaves core 1 an S
// copy under MESI. Thread 0 then computes to clock ~230 and stores to y;
// thread 1 computes to ~1040 and loads x again, so in (clock, ID) order
// thread 0's store comes first. got receives thread 1's second load.
func horizonGuests(x, y mem.Addr, got *mem.Word) []Guest {
	return []Guest{
		func(p Proc) {
			p.Load(x)
			p.Compute(200)
			p.Store(y, 5)
		},
		func(p Proc) {
			p.Load(x)
			p.Compute(1000)
			*got = p.Load(x)
		},
	}
}

func newMesiProbe() *horizonProbe {
	m := topo.NewCustom(1, 2, 0, topo.DefaultParams())
	return &horizonProbe{privateTestHierarchy: mesi.New(m, mesi.DefaultConfig(m))}
}

// TestHorizonOrdersMesiHits: thread 1's second load of x would hit its S
// copy if it ran when thread 1 resumed, but thread 0's earlier-clocked
// store invalidates that copy first. The horizon must keep the hit out
// of the guest, so the load goes through the scheduler after the store,
// misses and reads 5 — exactly what MinTimeScheduler's run does.
func TestHorizonOrdersMesiHits(t *testing.T) {
	x := mem.Addr(0x1000)
	run := func(sync bool) (*Result, *horizonProbe, mem.Word) {
		var got mem.Word
		h := newMesiProbe()
		e := New(h, horizonGuests(x, x, &got))
		h.e = e
		if sync {
			e.SetScheduler(MinTimeScheduler{})
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, h, got
	}
	ref, _, want := run(true)
	res, h, got := run(false)
	if want != 5 || got != 5 {
		t.Fatalf("thread 1 read %d (synchronous %d), want 5", got, want)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("result differs:\nsynchronous: %+v\nfast path:   %+v", ref, res)
	}
	if h.called[1] != 1 {
		t.Errorf("core 1 offered %d ops to Private, want 1 (its first load)", h.called[1])
	}
	if h.beyond != 0 {
		t.Errorf("%d ordered ops ran inline at or past the run-queue minimum", h.beyond)
	}
}

// TestHorizonSkipsIncoherent guards the other side: the incoherent
// hierarchy's private ops are unordered, so thread 1's hit on its L1
// copy of x must still run inline although thread 0, with its store
// pending, sits below it in the run queue.
func TestHorizonSkipsIncoherent(t *testing.T) {
	var got mem.Word
	h := &horizonProbe{privateTestHierarchy: newInlineCounter(2).Hierarchy}
	e := New(h, horizonGuests(0x1000, 0x2000, &got))
	h.e = e
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if h.accepted[1] != 1 || h.beyond != 1 {
		t.Errorf("core 1 ran %d ops inline, %d of them past the run-queue minimum; want 1 and 1", h.accepted[1], h.beyond)
	}
}

// TestHorizonTieBreak pins the (clock, ID) order setHorizon folds into
// one bound: at an equal clock only the lower ID goes first.
func TestHorizonTieBreak(t *testing.T) {
	for _, c := range []struct {
		time        int64
		id, otherID int
		want        bool
	}{
		{9, 1, 0, true},
		{10, 0, 1, true},
		{10, 1, 0, false},
		{11, 0, 1, false},
	} {
		th := &thread{id: c.id, time: c.time, budget: 1}
		th.setHorizon(&thread{id: c.otherID, time: 10})
		if got := th.inlineAccess(); got != c.want {
			t.Errorf("thread %d at %d against thread %d at 10: inline %v, want %v", c.id, c.time, c.otherID, got, c.want)
		}
	}
	th := &thread{budget: 1, time: math.MaxInt64 - 1}
	if th.setHorizon(nil); !th.inlineAccess() {
		t.Error("a thread alone in the run must never meet its horizon")
	}
}
