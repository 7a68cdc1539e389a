// Package hwsync implements the synchronization hardware of Section III-D:
// a synchronization table in the shared-cache controller serving barriers,
// queued locks, and condition flags. Requests are uncacheable; a requester
// that cannot be satisfied immediately is parked in the controller's queue
// and answered only when it owns the lock, the barrier is complete, or the
// flag condition holds — there is no spinning over the network.
//
// The controller is a pure timing/ordering structure: callers pass the
// request time and receive grant times; the execution engine blocks and
// wakes guest threads accordingly. All decisions are deterministic given
// request order (the engine presents requests in global time order with
// thread-ID tie-breaking).
package hwsync

import "fmt"

// Grant tells the engine to wake a thread at a given cycle.
type Grant struct {
	Thread int
	At     int64
}

// CostFunc returns the round-trip cost, in cycles, for a thread to reach
// the controller entry serving sync variable id. Machines derive it from
// mesh distance plus controller service time.
type CostFunc func(thread, id int) int64

// Controller is the synchronization table of one shared-cache controller.
type Controller struct {
	cost     CostFunc
	locks    map[int]*lockState
	barriers map[int]*barrierState
	flags    map[int]*flagState

	// Requests counts synchronization requests served, for sync-traffic
	// accounting by the machine.
	Requests int64

	// Entries a Reset dropped, kept for reuse so that a controller reset
	// between many short runs stops allocating them.
	spareLocks    []*lockState
	spareBarriers []*barrierState
	spareFlags    []*flagState
}

type lockState struct {
	held   bool
	holder int
	queue  []pending // FIFO of blocked acquirers
}

type pending struct {
	thread int
	at     int64 // request time at the requester
	value  int64 // flag threshold for flag waiters
}

type barrierState struct {
	parties int
	arrived []pending
}

type flagState struct {
	value   int64
	waiters []pending
}

// New returns a controller whose request round trips cost cost(thread, id).
// A nil cost means zero-cost synchronization (useful in unit tests).
func New(cost CostFunc) *Controller {
	if cost == nil {
		cost = func(int, int) int64 { return 0 }
	}
	return &Controller{
		cost:     cost,
		locks:    make(map[int]*lockState),
		barriers: make(map[int]*barrierState),
		flags:    make(map[int]*flagState),
	}
}

// Reset returns the controller to the state New built it in — no lock,
// barrier or flag, no request counted — keeping its maps and entries for
// reuse.
func (c *Controller) Reset() {
	c.spareLocks = keepEntries(c.spareLocks, c.locks)
	c.spareBarriers = keepEntries(c.spareBarriers, c.barriers)
	c.spareFlags = keepEntries(c.spareFlags, c.flags)
	c.Requests = 0
}

// keepEntries moves m's entries onto spare, emptying m.
func keepEntries[T any](spare []*T, m map[int]*T) []*T {
	for _, e := range m {
		spare = append(spare, e)
	}
	clear(m)
	return spare
}

// spare pops a kept entry off list, or returns nil when there is none.
func spare[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	e := (*list)[n-1]
	*list = (*list)[:n-1]
	return e
}

func (c *Controller) lock(id int) *lockState {
	l, ok := c.locks[id]
	if !ok {
		if l = spare(&c.spareLocks); l != nil {
			*l = lockState{queue: l.queue[:0]}
		} else {
			l = &lockState{}
		}
		c.locks[id] = l
	}
	return l
}

func (c *Controller) flag(id int) *flagState {
	f, ok := c.flags[id]
	if !ok {
		if f = spare(&c.spareFlags); f != nil {
			*f = flagState{waiters: f.waiters[:0]}
		} else {
			f = &flagState{}
		}
		c.flags[id] = f
	}
	return f
}

// Acquire requests lock id for thread at time now. If the lock is free the
// thread is granted immediately and Acquire returns (grantTime, true);
// otherwise the thread is queued and the engine must block it until a
// Release produces a Grant for it.
func (c *Controller) Acquire(thread, id int, now int64) (int64, bool) {
	c.Requests++
	l := c.lock(id)
	if !l.held {
		l.held = true
		l.holder = thread
		return now + c.cost(thread, id), true
	}
	l.queue = append(l.queue, pending{thread: thread, at: now})
	return 0, false
}

// Release releases lock id held by thread at time now. If another thread is
// queued, ownership transfers to the queue head and Release returns its
// Grant; the grant time covers the releaser's request reaching the
// controller plus the response to the new owner.
func (c *Controller) Release(thread, id int, now int64) (Grant, bool) {
	c.Requests++
	l := c.lock(id)
	if !l.held || l.holder != thread {
		panic(fmt.Sprintf("hwsync: thread %d releasing lock %d it does not hold (held=%v holder=%d)",
			thread, id, l.held, l.holder))
	}
	if len(l.queue) == 0 {
		l.held = false
		return Grant{}, false
	}
	next := l.queue[0]
	l.queue = l.queue[1:]
	l.holder = next.thread
	at := now + c.cost(thread, id)/2 + c.cost(next.thread, id)/2
	if at < next.at {
		at = next.at
	}
	return Grant{Thread: next.thread, At: at}, true
}

// HeldBy reports whether lock id is currently held and by whom.
func (c *Controller) HeldBy(id int) (int, bool) {
	l := c.lock(id)
	return l.holder, l.held
}

// QueueLen returns the number of threads waiting on lock id.
func (c *Controller) QueueLen(id int) int { return len(c.lock(id).queue) }

// BarrierArrive registers thread's arrival at barrier id with the given
// number of parties. When the last party arrives, it returns grants for
// every participant; until then it returns nil and the engine must block
// the thread.
func (c *Controller) BarrierArrive(thread, id int, now int64, parties int) []Grant {
	if parties <= 0 {
		panic("hwsync: barrier needs at least one party")
	}
	c.Requests++
	b, ok := c.barriers[id]
	if !ok {
		if b = spare(&c.spareBarriers); b != nil {
			*b = barrierState{parties: parties, arrived: b.arrived[:0]}
		} else {
			b = &barrierState{parties: parties}
		}
		c.barriers[id] = b
	}
	if b.parties != parties {
		panic(fmt.Sprintf("hwsync: barrier %d used with %d parties, previously %d", id, parties, b.parties))
	}
	b.arrived = append(b.arrived, pending{thread: thread, at: now})
	if len(b.arrived) < parties {
		return nil
	}
	last := int64(0)
	for _, p := range b.arrived {
		if p.at > last {
			last = p.at
		}
	}
	grants := make([]Grant, len(b.arrived))
	for i, p := range b.arrived {
		grants[i] = Grant{Thread: p.thread, At: last + c.cost(p.thread, id)}
	}
	b.arrived = b.arrived[:0] // barrier is reusable
	return grants
}

// FlagSet sets flag id to value at time now and returns grants for every
// parked waiter whose threshold is now satisfied. Flag values are
// monotically usable counters: a waiter with threshold v wakes when
// value >= v.
func (c *Controller) FlagSet(thread, id int, value int64, now int64) []Grant {
	c.Requests++
	f := c.flag(id)
	f.value = value
	arrive := now + c.cost(thread, id)/2
	var grants []Grant
	rest := f.waiters[:0]
	for _, w := range f.waiters {
		if f.value >= w.value {
			at := arrive + c.cost(w.thread, id)/2
			if at < w.at {
				at = w.at
			}
			grants = append(grants, Grant{Thread: w.thread, At: at})
		} else {
			rest = append(rest, w)
		}
	}
	f.waiters = rest
	return grants
}

// FlagWait asks for flag id to reach threshold at time now. If already
// satisfied it returns (grantTime, true); otherwise the thread is parked.
func (c *Controller) FlagWait(thread, id int, threshold int64, now int64) (int64, bool) {
	c.Requests++
	f := c.flag(id)
	if f.value >= threshold {
		return now + c.cost(thread, id), true
	}
	f.waiters = append(f.waiters, pending{thread: thread, at: now, value: threshold})
	return 0, false
}

// FlagValue returns the current value of flag id.
func (c *Controller) FlagValue(id int) int64 { return c.flag(id).value }

// Blocked returns the IDs of all threads currently parked in the
// controller (lock queues, incomplete barriers, flag waiters), for deadlock
// diagnostics.
func (c *Controller) Blocked() []int {
	var out []int
	for _, l := range c.locks {
		for _, p := range l.queue {
			out = append(out, p.thread)
		}
	}
	for _, b := range c.barriers {
		for _, p := range b.arrived {
			out = append(out, p.thread)
		}
	}
	for _, f := range c.flags {
		for _, p := range f.waiters {
			out = append(out, p.thread)
		}
	}
	return out
}
