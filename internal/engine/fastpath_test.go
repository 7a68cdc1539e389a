package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
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
