// Package engine is the execution-driven multiprocessor simulator. Guest
// threads are ordinary Go functions programmed against the Proc interface
// (the machine's ISA: loads, stores, WB/INV flavors, synchronization).
// Each guest runs as a coroutine (iter.Pull), and simulation is fully
// deterministic: every operation that can see or change another core's
// state executes in global (local clock, thread ID) order — the runnable
// thread with the smallest clock goes next, ties broken by thread ID —
// its latency is computed by the memory hierarchy, and the cycles are
// attributed to the paper's stall categories (INV, WB, lock, barrier,
// rest).
//
// Synchronization is served by the hwsync controller: threads that cannot
// be granted immediately are blocked, and grant times produced on release,
// barrier completion, or flag set wake them — no spinning over the network,
// matching Section III-D.
//
// The engine is event-driven (see DESIGN.md §10): guests deposit
// operations that return no value into a per-thread ring without waiting
// for execution and suspend only at loads, so the scheduler's hot loop is
// a run-queue pop, a ring pop, the hierarchy call, and a re-push. Control
// moves between a guest and the scheduler by direct coroutine switch —
// never through the Go scheduler, so there is no goroutine parking or
// wakeup anywhere on the hot path, and guest and scheduler never run
// concurrently. Blocked threads leave the run queue entirely; their wake
// is a grant event whose timestamp re-enters the queue, so when every
// core is quiescent the pop itself jumps global time directly to the
// earliest pending grant. The run queue pops a unique (time, thread-ID)
// minimum, and a thread's clock is final before it is re-pushed, so the
// operation sequence — and therefore every result, event stream, and
// span — is fixed by the guests and the hierarchy alone.
//
// An external Scheduler (litmus exploration) replaces the run-queue pop:
// at each decision the engine offers it every ready thread, in ID order,
// with the head of the thread's ring as the op it would run. A thread
// whose ring is empty is resumed first, so every candidate's op is known
// before the pick.
//
// Compute and the L1 hits a PrivateHierarchy vouches for never reach the
// scheduler: the guest coroutine runs them itself, in program order, when
// its ring is empty. Compute touches nothing shared, and neither does an
// incoherent hierarchy's L1 hit, so those run early without anyone being
// able to tell. A coherent hierarchy's hits are ordered: a remote store
// can invalidate the line, so the guest runs one only while its own
// (clock, ID) is below the run-queue minimum — the op the scheduler would
// pick next anyway. Either way the scheduler re-keys the thread at its
// advanced clock before its next scheduled op. The fast path is off under
// an Observer or recorder, which must see every op, and under a
// Scheduler, which must pick every op.
//
// Each guest runs on a coroutine that parks once its guest is done
// instead of ending. An engine that has been Reset keeps the parked
// coroutines between runs, and the next run resumes each with the
// thread's next guest, so a caller that replays many short runs (litmus
// exploration) neither starts coroutines nor regrows their stacks per
// run; Close ends them. An engine that is never Reset ends its
// coroutines when its run returns.
package engine

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sort"

	"repro/internal/hwsync"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Hierarchy is the memory-system interface the engine drives. Both the
// hardware-incoherent hierarchy (core package) and the MESI baseline (mesi
// package) implement it.
type Hierarchy interface {
	Load(core int, a mem.Addr) (mem.Word, int64)
	Store(core int, a mem.Addr, v mem.Word) int64
	LoadUncached(core int, a mem.Addr) (mem.Word, int64)
	StoreUncached(core int, a mem.Addr, v mem.Word) int64
	WB(core int, r mem.Range, lvl isa.Level) int64
	INV(core int, r mem.Range, lvl isa.Level) int64
	WBAll(core int, useMEB bool, lvl isa.Level) int64
	INVAll(core int, lazy bool, lvl isa.Level) int64
	WBCons(core int, r mem.Range, cons int) int64
	InvProd(core int, r mem.Range, prod int) int64
	WBConsAll(core, cons int) int64
	InvProdAll(core, prod int) int64
	SigPublish(core, ch int) int64
	INVSig(core, ch int) int64
	DMACopy(core int, dst mem.Addr, src mem.Range, toBlock int) int64
	EpochBoundary(core int)
	SyncCost(core, id int) int64
	Drain()
	Memory() *mem.Memory
	Traffic() stats.Traffic
	Counters() *stats.Counters
}

// PrivateHierarchy is the optional surface behind the private-op fast
// path (see DESIGN.md §10). Private executes core's cacheable load
// (kind isa.OpLoad) or store (isa.OpStore of v) and reports true when it
// is an L1 hit with the exact effect of Load or Store and zero exposed
// latency; otherwise it changes nothing and reports false. The guest
// coroutine runs an accepted op itself instead of handing it to the
// scheduler.
//
// PrivateOrdered says when that is sound. False: the op touches only
// state no other core's op reads or writes (the hardware-incoherent
// hierarchy), so it gives the same value and state whenever it runs in
// the core's program order, and the guest may run it at any time. True:
// other cores' ops can change the line (MESI, whose directory invalidates
// and downgrades L1 copies), so the engine offers the op only while the
// thread's (clock, ID) is below every other ready thread's — where the
// scheduler would run it next anyway.
type PrivateHierarchy interface {
	Private(core int, kind isa.OpKind, a mem.Addr, v mem.Word) (mem.Word, bool)
	PrivateOrdered() bool
}

// Guest is one guest thread's program. The Proc passed in is only valid
// during the call and must not be used from other goroutines.
type Guest func(p Proc)

// Proc is the processor interface a guest thread programs against.
type Proc interface {
	// ID is the thread's ID (threads map 1:1 to cores).
	ID() int
	// NumThreads is the number of threads in the run.
	NumThreads() int

	// Load and Store are cacheable word accesses.
	Load(a mem.Addr) mem.Word
	Store(a mem.Addr, v mem.Word)
	// LoadU and StoreU are uncacheable word accesses.
	LoadU(a mem.Addr) mem.Word
	StoreU(a mem.Addr, v mem.Word)
	// Compute models local work of the given duration.
	Compute(cycles int64)

	// WB/INV operate on address ranges at the default level; the Global
	// forms are the WB_L3/INV_L2 instructions.
	WB(r mem.Range)
	INV(r mem.Range)
	WBGlobal(r mem.Range)
	INVGlobal(r mem.Range)

	// Whole-cache forms. WBAllMEB uses the Modified Entry Buffer when
	// valid; INVAllLazy arms the Invalidated Entry Buffer instead of
	// eagerly invalidating.
	WBAll()
	WBAllMEB()
	WBAllGlobal()
	INVAll()
	INVAllLazy()
	INVAllGlobal()

	// Level-adaptive instructions of Section V.
	WBCons(r mem.Range, cons int)
	InvProd(r mem.Range, prod int)
	WBConsAll(cons int)
	InvProdAll(prod int)

	// Bloom-signature operations (Ashby-style selective invalidation).
	SigPublish(ch int)
	INVSig(ch int)

	// DMACopy initiates a DMA transfer of src to the equal-length range
	// at dst, depositing the lines in block toBlock's L2 (Runnemede's
	// inter-block communication mechanism).
	DMACopy(dst mem.Addr, src mem.Range, toBlock int)

	// Synchronization, served by the shared-cache controller.
	Acquire(lock int)
	Release(lock int)
	Barrier(id int)
	FlagSet(id int, v int64)
	FlagWait(id int, threshold int64)
}

// EventKind classifies an observer event.
type EventKind int

const (
	// EvOp is a completed non-sync operation (its latency already
	// charged; Value carries the load result for load kinds). Compute
	// ops are not reported.
	EvOp EventKind = iota
	// EvSyncIssue is a synchronization op arriving at the controller,
	// before any grant. For barriers this is the arrival.
	EvSyncIssue
	// EvSyncDone is a blocking synchronization op completing: an
	// immediate or woken acquire/flag-wait grant, or a barrier release.
	// Posted ops (release, flag set) act entirely at issue and get no
	// done event.
	EvSyncDone
)

// Event is one step of the deterministic execution, as seen by an
// Observer. Events are emitted from the scheduler goroutine in execution
// order.
type Event struct {
	Kind   EventKind
	Thread int
	Op     isa.Op
	// Value is the result of a load (EvOp with a load kind).
	Value mem.Word
	// Time is the thread's local clock after the op (EvOp) or at
	// issue/grant (sync events).
	Time int64
}

// Observer receives the execution event stream. Calls are made serially
// from the scheduler goroutine; the observer must not retain the Event.
// The coherence oracle (internal/oracle) is the primary implementation.
type Observer interface {
	OnEvent(Event)
}

// DefaultNoProgressLimit is the livelock watchdog's default window: the
// number of consecutive scheduler events without a synchronization grant
// or thread completion after which the run is declared livelocked. Spin
// loops advance simulated time (they compute between probes), so time
// cannot distinguish a livelock from a long quiet phase — grants can.
// The default is generous enough that bench-scale sync-free compute
// phases never trip it.
//
// The window counts scheduler events, not simulated cycles, so
// fast-forwarding over quiescent stretches does not stretch the timeout:
// a grant that jumps time by a million cycles is still one progressed
// event, and a spin loop still burns one budget unit per operation no
// matter how much simulated time each probe charges.
const DefaultNoProgressLimit = 1 << 26

// LivelockError reports a run aborted by the no-progress watchdog.
type LivelockError struct {
	// Steps is the size of the no-progress window that fired.
	Steps int64
	// Blocked lists the threads parked in the controller at abort time.
	Blocked []int
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("engine: livelock: %d scheduler steps without a sync grant or thread completion (threads %v blocked)",
		e.Steps, e.Blocked)
}

// ErrorKind labels the failure for the runner's error taxonomy.
func (e *LivelockError) ErrorKind() string { return "livelock" }

// Result is the outcome of a run.
type Result struct {
	// Cycles is the parallel execution time: the max over threads of
	// their finish time.
	Cycles int64
	// PerThread holds each thread's stall breakdown.
	PerThread []stats.Stalls
	// Stalls is the sum over threads.
	Stalls stats.Stalls
	// Traffic is the hierarchy's flit counts at the end of the run.
	Traffic stats.Traffic
	// Ops counts executed operations by kind.
	Ops [isa.NumOpKinds]int64
}

// Engine drives one run.
type Engine struct {
	h      Hierarchy
	ctrl   *hwsync.Controller
	tstore []thread // contiguous thread arena; ts points into it
	ts     []*thread
	rq     runq
	obs    Observer
	rec    *obs.Recorder

	// par is non-nil while the block-parallel executor is active; wake
	// then routes grants to the woken thread's shard queue (see
	// blockpar.go).
	par *parGroup

	// sched, when non-nil, replaces the run-queue pop (see sched.go);
	// cands is its reused candidate buffer, decision counts the
	// scheduling decisions taken, and pickErr is the error that ended the
	// run at a decision (an abort or an out-of-range pick).
	sched    Scheduler
	cands    []Candidate
	decision int64
	pickErr  error

	// NoProgressLimit overrides the livelock watchdog window when
	// positive (see DefaultNoProgressLimit). Set it before Run.
	NoProgressLimit int64

	// progressed is set whenever a sync grant is delivered or a thread
	// completes; the watchdog clears it each step.
	progressed bool
	stopped    bool

	// keep is set by Reset: the engine then keeps its parked guest
	// coroutines when a run returns, until Close.
	keep bool
	// res is the Result the engine's first run allocated; every later
	// run (which needs a Reset) fills it in again.
	res *Result
}

type thread struct {
	id      int
	guest   Guest
	time    int64
	stalls  stats.Stalls
	pipe    opPipe
	loadVal mem.Word // pending load result, read by the guest on resume
	// histHash is a rolling hash of the value of every op the thread has
	// completed under a Scheduler (see completed). Together with the ring
	// head it pins the guest's continuation state for StateFingerprint
	// (see fingerprint.go).
	histHash uint64
	cur      isa.Op // blocking sync op, valid while state == blocked
	state    tstate
	blockAt  int64           // time the blocking request was issued
	blockAs  stats.StallKind // category charged for the wait
	err      error
	co       coro
	// finished is set by the coroutine once this run's guest has returned
	// or unwound; stop asks the guest to unwind at its next yield (see
	// shutdown).
	finished bool
	stop     bool
	// pr is the guest-facing Proc, embedded here so it lives in the
	// thread arena instead of a per-thread heap allocation.
	pr proc
	// Private-op fast path: priv is the hierarchy's
	// private-op surface (nil when the path is off), budget the number of
	// ops the guest may still run inline before the current resume
	// returns, and ops the run's per-kind op counts, which inline ops bump
	// directly. horizon bounds the clock at which the guest may start an
	// inline load or store: noHorizon for an unordered hierarchy, else the
	// run-queue minimum folded into one clock value (see setHorizon).
	priv    PrivateHierarchy
	budget  int64
	horizon int64
	ops     *[isa.NumOpKinds]int64
}

// noHorizon is the horizon of a hierarchy whose private ops are
// unordered: no clock reaches it, so the guest's check always passes.
const noHorizon = math.MaxInt64

// coro holds one thread's guest coroutine (iter.Pull over guestSeq).
// resume runs the guest until its next yield; halt ends the coroutine
// for good (a suspended guest's pending yield returns false and do
// raises the stop sentinel). yield is the guest-side handle, set when
// the coroutine first runs. A kept coroutine outlives its thread's
// Reset, so these live apart from the per-run thread state.
type coro struct {
	resume func() (struct{}, bool)
	halt   func()
	yield  func(struct{}) bool
}

// close ends the coroutine, if there is one.
func (c *coro) close() {
	if c.halt != nil {
		c.halt()
		*c = coro{}
	}
}

type tstate int

const (
	ready tstate = iota
	blocked
	done
)

// New builds an engine over hierarchy h for the given guests (one per
// core, in core order). Thread contexts live in one contiguous arena
// (structure-of-arrays layout indexed by dense thread id): a single
// allocation instead of one per thread, with the op rings embedded, so
// a 1024-core engine costs one slab plus the coroutine handles. The run
// queue's ring is allocated by the first run.
func New(h Hierarchy, guests []Guest) *Engine {
	e := &Engine{h: h, ctrl: hwsync.New(h.SyncCost)}
	e.tstore = make([]thread, len(guests))
	e.ts = make([]*thread, len(guests))
	for i, g := range guests {
		e.tstore[i] = thread{id: i, guest: g}
		e.ts[i] = &e.tstore[i]
	}
	return e
}

// Reset readies the engine for a new run of guests over the same
// hierarchy, returning it to the state New(h, guests) would produce while
// reusing the thread arena, the run-queue storage, the sync controller
// (reset to its constructed state) and the run Result: no scheduler,
// observer, recorder or watchdog override. The hierarchy is not touched —
// reset it separately. The run after a Reset fills in the Result the
// engine's previous run returned, so a caller that keeps a Result across
// a Reset must copy it.
//
// A Reset engine also keeps its guest coroutines: each one parks when
// its guest is done and runs the thread's next guest on the next run, so
// a replay does not start new coroutines and grow their stacks again.
// Parked coroutines stay until Close; the caller must Close an engine it
// has Reset before dropping it. Reset ends every coroutine whose guest
// did not finish (a run that panicked out of a Scheduler or Observer
// leaves its guests suspended), the surplus ones when guests has fewer
// threads than the last run, and all of them when it needs a larger
// arena.
func (e *Engine) Reset(guests []Guest) {
	n := len(guests)
	if cap(e.tstore) < n {
		e.Close()
		e.tstore = make([]thread, n)
		e.ts = make([]*thread, n)
	}
	for i := range e.tstore {
		if t := &e.tstore[i]; i >= n || !t.finished {
			t.co.close()
		}
	}
	clear(e.tstore[min(n, len(e.tstore)):])
	e.tstore, e.ts = e.tstore[:n], e.ts[:n]
	for i, g := range guests {
		e.tstore[i] = thread{id: i, guest: g, co: e.tstore[i].co}
		e.ts[i] = &e.tstore[i]
	}
	e.ctrl.Reset()
	*e = Engine{
		h:      e.h,
		ctrl:   e.ctrl,
		tstore: e.tstore,
		ts:     e.ts,
		rq:     e.rq,
		cands:  e.cands[:0],
		res:    e.res,
		keep:   true,
	}
}

// Close ends the guest coroutines a Reset engine keeps parked between
// runs. Call it once the engine will not run again, or before handing it
// to a cache that may drop it; a closed engine may still be Reset and run
// again, starting new coroutines. An engine that was never Reset has
// nothing parked, since RunCtx ends its coroutines on return. Close also
// unwinds guests a run left suspended by panicking out of a Scheduler or
// Observer.
func (e *Engine) Close() {
	for _, t := range e.ts {
		t.co.close()
	}
}

// SetObserver installs the execution event observer (nil to disable).
// Call before Run; the observer adds one call per op to the hot loop, so
// it is off by default.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// SetRecorder installs the observability recorder (nil to disable, the
// default). When set, the engine advances the recorder's simulated clock
// each step and emits one span per stall attribution — the same
// (kind, cycles) pairs that land in Result.Stalls, so the recorder's
// per-kind totals reconcile exactly with the run result, including across
// fast-forwarded quiescent stretches (a woken thread's wait span covers
// exactly the skipped interval). Call before Run.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Run executes all guests to completion and returns the run result. It is
// deterministic: identical guests over an identical hierarchy produce an
// identical result.
func (e *Engine) Run() (*Result, error) {
	return e.RunCtx(context.Background())
}

// ctxPollMask sets how often the step loop polls ctx: every 256 steps
// keeps cancellation latency in the microseconds without measurably
// slowing the hot loop. An inline op counts as a step, and the inline
// budget never carries a resume past the next poll.
const ctxPollMask = 255

// cpi is the busy time, in cycles, every non-compute op charges on top
// of its exposed latency.
const cpi = 1

// RunCtx is Run with cooperative preemption: the step loop polls ctx and
// aborts the run when it is canceled, unwinding every guest coroutine
// before returning (no guest outlives RunCtx, whatever the exit path). A
// no-progress watchdog likewise aborts runs that stop granting
// synchronization while still burning steps — the livelock shape (e.g. a
// spin loop whose flag store was lost) that the deadlock check cannot
// see. Simulation results are identical to Run's; cancellation and the
// watchdog only decide whether the run completes.
func (e *Engine) RunCtx(ctx context.Context) (*Result, error) {
	if !e.keep {
		// Nothing runs this engine again without a Reset: end its
		// coroutines with the run, whichever way it returns.
		defer e.Close()
	}
	for _, t := range e.ts {
		t.pr = proc{t: t, n: len(e.ts)}
		if t.co.resume == nil {
			t.co.resume, t.co.halt = iter.Pull(guestSeq(t))
		}
	}
	if sh, ok := e.h.(ShardedHierarchy); ok && e.sched == nil && e.obs == nil && e.rec == nil &&
		sh.ParallelShards() > 1 && len(e.ts) <= maxParThreads {
		return e.runBlockParallel(ctx, sh)
	}
	return e.runPipelined(ctx)
}

// runPipelined is the event-driven scheduler loop. Every non-done,
// non-blocked thread is either in the run queue keyed by (local clock,
// ID) or held in hand as the current minimum; each iteration receives the
// minimum thread's next deposited op (already in its pipe unless the
// guest is still computing), executes it, and keeps the thread in hand
// while its advanced clock is still the global minimum — the common case
// under the default policy's 23% same-thread run length, and the case
// where the queue is skipped entirely. A pop that finds the guest's pipe
// closed retires the thread. Blocked threads re-enter the queue from
// wake(), timestamped at their grant — which is what makes a fully
// quiescent machine jump straight to the earliest pending event.
//
// When the hierarchy offers the private-op fast path, each resume grants
// the guest a budget of ops it may run inline (see thread.inline). The ops
// it ran are charged as steps for the watchdog and the ctx poll; the
// budget stops one short of the watchdog limit, so the trip still lands
// on a scheduled op, and never runs past the next poll. For a hierarchy
// whose private ops are ordered, each resume also hands the guest the
// run-queue minimum as its horizon. Nothing else runs while the guest
// does, so the bound holds for the whole resume. If the inline ops moved
// the thread's clock past the run-queue minimum, the thread is re-keyed
// before its next deposited op runs, so every op that reaches the
// scheduler still runs in (time, ID) order.
//
// Under a Scheduler the run queue stays empty: each iteration's thread is
// the one pick chooses among the ready threads, and the fast path is off.
func (e *Engine) runPipelined(ctx context.Context) (*Result, error) {
	e.rq.reset(e.ts)
	defer e.rq.tally()
	res := e.newResult()
	limit := e.NoProgressLimit
	if limit <= 0 {
		limit = DefaultNoProgressLimit
	}
	priv := e.privateOps()
	ordered := priv != nil && priv.PrivateOrdered()
	if priv != nil {
		for _, t := range e.ts {
			t.priv, t.ops, t.horizon = priv, &res.Ops, noHorizon
		}
	}
	stop := ctx.Done()
	var steps, idle, nextPoll int64
	var t *thread
	if e.sched != nil {
		t = e.pick()
	} else {
		for _, t := range e.ts {
			e.rq.push(t)
		}
		t = e.rq.pop()
	}
	for {
		if stop != nil && steps >= nextPoll {
			select {
			case <-stop:
				e.shutdown()
				return nil, fmt.Errorf("engine: run canceled: %w", ctx.Err())
			default:
			}
			nextPoll = steps + ctxPollMask + 1
		}
		steps++
		if t == nil {
			err := e.pickErr
			if err == nil {
				if e.allDone() {
					break
				}
				err = e.deadlockError()
			}
			e.shutdown()
			return nil, err
		}
		if priv != nil && t.pipe.empty() && !t.finished {
			budget := limit - 1 - idle
			if stop != nil {
				budget = min(budget, nextPoll-steps)
			}
			if ordered {
				t.setHorizon(e.rq.peek())
			}
			before := t.time
			n := t.resumeInline(budget)
			steps += n
			idle += n
			if t.time != before {
				if e.rq.before(t) {
					t = e.rq.swapMin(t)
					continue
				}
			}
		}
		op, ok := e.nextOp(t)
		runnable := false
		if !ok {
			t.state = done
			e.progressed = true
		} else {
			var err error
			if runnable, err = e.stepPipelined(t, op, res); err != nil {
				e.shutdown()
				return nil, err
			}
		}
		if e.progressed {
			e.progressed = false
			idle = 0
		} else if idle++; idle >= limit {
			err := &LivelockError{Steps: idle, Blocked: e.blockedIDs()}
			e.shutdown()
			return nil, err
		}
		switch {
		case e.sched != nil:
			t = e.pick()
		case runnable:
			if e.rq.before(t) {
				t = e.rq.swapMin(t)
			}
		default:
			t = e.rq.pop()
		}
	}
	return e.finish(res)
}

// newResult returns the zeroed Result a run fills in: the engine's own,
// allocated by its first run.
func (e *Engine) newResult() *Result {
	if e.res == nil || cap(e.res.PerThread) < len(e.ts) {
		e.res = &Result{PerThread: make([]stats.Stalls, len(e.ts))}
		return e.res
	}
	*e.res = Result{PerThread: e.res.PerThread[:len(e.ts)]}
	clear(e.res.PerThread)
	return e.res
}

// finish folds per-thread outcomes into the result after a clean run.
func (e *Engine) finish(res *Result) (*Result, error) {
	for i, t := range e.ts {
		if t.err != nil {
			return nil, fmt.Errorf("engine: thread %d: %w", i, t.err)
		}
		res.PerThread[i] = t.stalls
		res.Stalls.Merge(&t.stalls)
		if t.time > res.Cycles {
			res.Cycles = t.time
		}
	}
	res.Traffic = e.h.Traffic()
	return res, nil
}

// nextOp returns thread t's next operation, resuming the guest coroutine
// when its ring is empty; ok is false once the guest has returned and its
// ring has drained. Resuming with an empty ring is what makes do's load
// protocol sound: every op the guest deposited before suspending —
// including the load whose value it is waiting for — has already
// executed.
func (e *Engine) nextOp(t *thread) (*isa.Op, bool) {
	for {
		if op, ok := t.pipe.tryPop(); ok {
			return op, true
		}
		if t.finished {
			return nil, false
		}
		t.co.resume()
	}
}

// privateOps returns the hierarchy's private-op surface when the run may
// use the fast path: never under an observer or a recorder, which must
// see every op, nor under a Scheduler, which must pick every op.
func (e *Engine) privateOps() PrivateHierarchy {
	if e.obs != nil || e.rec != nil || e.sched != nil {
		return nil
	}
	p, _ := e.h.(PrivateHierarchy)
	return p
}

// setHorizon bounds t's ordered inline ops by m, the run-queue minimum
// (nil when no other thread is ready). t may start one while its
// (clock, ID) orders before m's: clock < m.time, or clock == m.time and
// t.id < m.id. IDs are fixed, so that is the single compare
// clock < horizon with the tie folded into the bound.
func (t *thread) setHorizon(m *thread) {
	switch {
	case m == nil:
		t.horizon = noHorizon
	case t.id < m.id:
		t.horizon = m.time + 1
	default:
		t.horizon = m.time
	}
}

// resumeInline resumes t's guest, whose ring is empty, letting it run up
// to budget private ops inline, and returns how many it ran. The guest
// returns having deposited its next op (or finished), as under nextOp.
func (t *thread) resumeInline(budget int64) int64 {
	budget = max(budget, 0)
	t.budget = budget
	t.co.resume()
	n := budget - t.budget
	t.budget = 0
	return n
}

// shutdown unwinds every live guest: stop makes the guest's pending (or
// next) yield raise the stop sentinel, and the unwind runs to completion
// inside the resume call, after which the coroutine parks (a guest that
// never started this run is not started) — no guest survives shutdown.
func (e *Engine) shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, t := range e.ts {
		if t.state == done {
			continue
		}
		if !t.finished {
			t.stop = true
			t.co.resume()
		}
		t.state = done
	}
}

// blockedIDs lists the threads parked in the controller, for error
// reports.
func (e *Engine) blockedIDs() []int {
	var ids []int
	for _, t := range e.ts {
		if t.state == blocked {
			ids = append(ids, t.id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (e *Engine) allDone() bool {
	for _, t := range e.ts {
		if t.state != done {
			return false
		}
	}
	return true
}

func (e *Engine) deadlockError() error {
	var waiting []int
	for _, t := range e.ts {
		if t.state == blocked {
			waiting = append(waiting, t.id)
		}
	}
	sort.Ints(waiting)
	return fmt.Errorf("engine: deadlock: threads %v blocked in the synchronization controller (%v parked)",
		waiting, e.ctrl.Blocked())
}

// stepPipelined executes op for thread t, reporting whether t is still
// runnable (not blocked in the controller). Only load results are read
// by the guest; every other op was deposited fire-and-forget, and its
// zero value in loadVal is overwritten before the guest's next load
// returns. A thread woken by its own op (the last barrier arrival)
// re-enters the run queue through wake and reports not-runnable here, so
// it is never both queued and in hand.
func (e *Engine) stepPipelined(t *thread, op *isa.Op, res *Result) (bool, error) {
	res.Ops[op.Kind]++
	if e.rec != nil {
		e.rec.SetNow(t.time)
	}
	var val mem.Word
	if op.Kind.IsSync() {
		e.h.EpochBoundary(t.id)
		if runnable, err := e.stepSync(t, op); !runnable || err != nil {
			return runnable, err
		}
	} else {
		var err error
		if val, err = e.execOp(t, op); err != nil {
			return false, err
		}
		t.loadVal = val
	}
	if e.sched != nil {
		t.completed(val)
	}
	return true, nil
}

// execOp performs a non-sync op against the hierarchy and charges its
// cycles: one issue slot of busy time plus the exposed latency under the
// op's stall category. It returns the loaded value for load kinds.
func (e *Engine) execOp(t *thread, op *isa.Op) (mem.Word, error) {
	var val mem.Word
	var lat int64
	var kind stats.StallKind
	switch op.Kind {
	case isa.OpLoad:
		val, lat = e.h.Load(t.id, op.Addr)
		kind = stats.MemStall
	case isa.OpStore:
		lat = e.h.Store(t.id, op.Addr, op.Value)
		kind = stats.MemStall
	case isa.OpLoadU:
		val, lat = e.h.LoadUncached(t.id, op.Addr)
		kind = stats.MemStall
	case isa.OpStoreU:
		lat = e.h.StoreUncached(t.id, op.Addr, op.Value)
		kind = stats.MemStall
	case isa.OpCompute:
		t.time += op.Cycles
		t.stalls.Add(stats.Busy, op.Cycles)
		if e.rec != nil {
			e.rec.Span(t.id, stats.Busy, t.time-op.Cycles, op.Cycles)
		}
		return 0, nil
	case isa.OpWB:
		lat = e.h.WB(t.id, op.Range, op.Level)
		kind = stats.WBStall
	case isa.OpINV:
		lat = e.h.INV(t.id, op.Range, op.Level)
		kind = stats.INVStall
	case isa.OpWBAll:
		lat = e.h.WBAll(t.id, op.UseMEB, op.Level)
		kind = stats.WBStall
	case isa.OpINVAll:
		lat = e.h.INVAll(t.id, op.Lazy, op.Level)
		kind = stats.INVStall
	case isa.OpWBCons:
		lat = e.h.WBCons(t.id, op.Range, op.Peer)
		kind = stats.WBStall
	case isa.OpInvProd:
		lat = e.h.InvProd(t.id, op.Range, op.Peer)
		kind = stats.INVStall
	case isa.OpWBConsAll:
		lat = e.h.WBConsAll(t.id, op.Peer)
		kind = stats.WBStall
	case isa.OpInvProdAll:
		lat = e.h.InvProdAll(t.id, op.Peer)
		kind = stats.INVStall
	case isa.OpDMACopy:
		lat = e.h.DMACopy(t.id, op.Addr, op.Range, op.Peer)
		kind = stats.MemStall
	case isa.OpSigPublish:
		lat = e.h.SigPublish(t.id, op.ID)
		kind = stats.WBStall
	case isa.OpINVSig:
		lat = e.h.INVSig(t.id, op.ID)
		kind = stats.INVStall
	default:
		return 0, fmt.Errorf("engine: thread %d issued unknown op %v", t.id, op)
	}
	t.time += cpi + lat
	t.stalls.Add(stats.Busy, cpi)
	t.stalls.Add(kind, lat)
	if e.rec != nil {
		start := t.time - cpi - lat
		e.rec.Span(t.id, stats.Busy, start, cpi)
		e.rec.Span(t.id, kind, start+cpi, lat)
	}
	if e.obs != nil {
		e.obs.OnEvent(Event{Kind: EvOp, Thread: t.id, Op: *op, Value: val, Time: t.time})
	}
	return val, nil
}

// stepSync executes a synchronization op, blocking the thread when the
// controller cannot grant immediately. The returned flag reports whether
// t may continue directly (true) or was either parked in the controller
// or re-entered through wake (false — barriers always resume via wake,
// even for the last arrival).
func (e *Engine) stepSync(t *thread, op *isa.Op) (bool, error) {
	if e.obs != nil {
		e.obs.OnEvent(Event{Kind: EvSyncIssue, Thread: t.id, Op: *op, Time: t.time})
	}
	switch op.Kind {
	case isa.OpAcquire:
		at, ok := e.ctrl.Acquire(t.id, op.ID, t.time)
		if !ok {
			e.block(t, op, stats.LockStall)
			return false, nil
		}
		t.stalls.Add(stats.LockStall, at-t.time)
		if e.rec != nil {
			e.rec.Span(t.id, stats.LockStall, t.time, at-t.time)
		}
		t.time = at
		e.granted(t, op, at)
		return true, nil
	case isa.OpRelease:
		// Posted: the releaser does not wait for the controller.
		grant, ok := e.ctrl.Release(t.id, op.ID, t.time)
		if ok {
			e.wake(grant)
		}
		return true, nil
	case isa.OpBarrier:
		grants := e.ctrl.BarrierArrive(t.id, op.ID, t.time, len(e.ts))
		e.block(t, op, stats.BarrierStall)
		// Last arrival: wake everyone, including this thread.
		for _, g := range grants {
			e.wake(g)
		}
		return false, nil
	case isa.OpFlagSet:
		grants := e.ctrl.FlagSet(t.id, op.ID, int64(op.Value), t.time)
		for _, g := range grants {
			e.wake(g)
		}
		return true, nil
	case isa.OpFlagWait:
		at, ok := e.ctrl.FlagWait(t.id, op.ID, int64(op.Value), t.time)
		if !ok {
			e.block(t, op, stats.FlagStall)
			return false, nil
		}
		t.stalls.Add(stats.FlagStall, at-t.time)
		if e.rec != nil {
			e.rec.Span(t.id, stats.FlagStall, t.time, at-t.time)
		}
		t.time = at
		e.granted(t, op, at)
		return true, nil
	default:
		return false, fmt.Errorf("engine: thread %d issued unknown sync op %v", t.id, op)
	}
}

// block parks t in the controller on op, recording what the eventual
// wait will be charged as.
func (e *Engine) block(t *thread, op *isa.Op, as stats.StallKind) {
	t.state = blocked
	t.cur = *op
	t.blockAt = t.time
	t.blockAs = as
	if e.par != nil {
		// Blocking happens only on the coordinator; the shard loses its
		// free-run eligibility until the thread is granted.
		e.par.shards[e.par.shardOf[t.id]].blocked++
	}
}

// granted records a completed blocking sync op: watchdog progress plus
// the observer's done event.
func (e *Engine) granted(t *thread, op *isa.Op, at int64) {
	e.progressed = true
	if e.obs != nil {
		e.obs.OnEvent(Event{Kind: EvSyncDone, Thread: t.id, Op: *op, Time: at})
	}
}

// wake unblocks a thread granted by the controller. All accounting —
// the wait span, the clock jump to the grant time, the done event —
// happens here, at grant creation, so the event stream and spans are
// identical whichever loop runs the thread next. Under a Scheduler the
// thread needs no queue: pick finds it ready.
func (e *Engine) wake(g hwsync.Grant) {
	t := e.ts[g.Thread]
	if t.state != blocked {
		panic(fmt.Sprintf("engine: grant for thread %d which is not blocked", g.Thread))
	}
	wait := g.At - t.blockAt
	if wait < 0 {
		wait = 0
	}
	t.stalls.Add(t.blockAs, wait)
	if e.rec != nil {
		e.rec.Span(t.id, t.blockAs, t.blockAt, wait)
	}
	t.time = g.At
	t.state = ready
	e.granted(t, &t.cur, g.At)
	switch {
	case e.par != nil:
		s := e.par.shards[e.par.shardOf[t.id]]
		s.blocked--
		s.rq.push(t)
	case e.sched != nil:
		t.completed(0)
	default:
		e.rq.push(t)
	}
}

// completed folds the value of an op t has completed (zero for all but
// loads) into its history hash. The |1 bit makes every op change the
// hash (Mix64 fixes 0 at 0), so the hash also counts how many ops have
// completed.
func (t *thread) completed(val mem.Word) {
	t.histHash = mem.Mix64(t.histHash, uint64(val)<<1|1)
}

// stopSentinel is the panic value do() raises when the engine halts a
// thread during shutdown; guestSeq swallows it so preemption is not
// reported as a guest failure.
type stopSentinel struct{}

// guestSeq adapts thread t's guest to a coroutine body for iter.Pull.
// The guest runs only while the scheduler is inside resume; a stop
// request or a yield returning false (halt) unwinds it via the stop
// sentinel. Either way the body marks the thread finished and parks at a
// yield; the next resume — after Reset has installed the thread's next
// guest — runs that guest on the same coroutine and stack, and halt ends
// the body.
func guestSeq(t *thread) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		t.co.yield = yield
		for {
			if !t.stop {
				t.runGuest()
			}
			t.finished = true
			if !yield(struct{}{}) {
				return
			}
		}
	}
}

// runGuest runs the thread's guest once, capturing a panic as the
// thread's error; the stop sentinel is an unwind, not a failure.
func (t *thread) runGuest() {
	defer func() {
		if r := recover(); r != nil {
			if _, stopped := r.(stopSentinel); !stopped {
				t.err = fmt.Errorf("guest panic: %v", r)
			}
		}
	}()
	t.guest(&t.pr)
}

// proc implements Proc over the thread's op ring. Ops that return no
// value are deposited without suspending the guest — program order is
// preserved by the ring, and the scheduler executes at most one of this
// thread's ops at a time — while loads yield control until their value
// arrives. Under the private-op fast path, Load, Store and Compute first
// try to run inline (see inline).
type proc struct {
	t *thread
	n int
}

func (p *proc) do(op isa.Op) mem.Word {
	t := p.t
	for !t.pipe.tryPush(op) {
		// Ring full: hand control back until the scheduler drains it.
		t.suspend()
	}
	if op.Kind != isa.OpLoad && op.Kind != isa.OpLoadU {
		return 0
	}
	// A load suspends the guest. The scheduler resumes it only once its
	// ring is empty (see nextOp), by which point the load has executed
	// and left its value in loadVal.
	t.suspend()
	return t.loadVal
}

// suspend hands control back to the scheduler until it resumes the
// guest, unwinding the guest with the stop sentinel if the scheduler
// halted or stopped it meanwhile.
func (t *thread) suspend() {
	if !t.co.yield(struct{}{}) || t.stop {
		panic(stopSentinel{})
	}
}

// inline reports whether the guest may run its next op itself: the run
// granted it budget, and its ring is empty, so every earlier op of the
// guest has executed and running this one now keeps program order.
func (t *thread) inline() bool { return t.budget > 0 && t.pipe.empty() }

// inlineAccess is inline for a cacheable load or store, which must also
// start below the thread's horizon (always, for an unordered hierarchy).
func (t *thread) inlineAccess() bool { return t.inline() && t.time < t.horizon }

// retire charges an op the guest ran inline exactly as execOp would
// charge it: cycles of busy time and no exposed latency.
func (t *thread) retire(k isa.OpKind, cycles int64) {
	t.budget--
	t.ops[k]++
	t.time += cycles
	t.stalls.Add(stats.Busy, cycles)
}

func (p *proc) ID() int         { return p.t.id }
func (p *proc) NumThreads() int { return p.n }

func (p *proc) Load(a mem.Addr) mem.Word {
	if t := p.t; t.inlineAccess() {
		if v, ok := t.priv.Private(t.id, isa.OpLoad, a, 0); ok {
			t.retire(isa.OpLoad, cpi)
			return v
		}
	}
	return p.do(isa.Op{Kind: isa.OpLoad, Addr: a})
}
func (p *proc) Store(a mem.Addr, v mem.Word) {
	if t := p.t; t.inlineAccess() {
		if _, ok := t.priv.Private(t.id, isa.OpStore, a, v); ok {
			t.retire(isa.OpStore, cpi)
			return
		}
	}
	p.do(isa.Op{Kind: isa.OpStore, Addr: a, Value: v})
}
func (p *proc) LoadU(a mem.Addr) mem.Word {
	return p.do(isa.Op{Kind: isa.OpLoadU, Addr: a})
}
func (p *proc) StoreU(a mem.Addr, v mem.Word) {
	p.do(isa.Op{Kind: isa.OpStoreU, Addr: a, Value: v})
}
func (p *proc) Compute(cycles int64) {
	if cycles <= 0 {
		return
	}
	if t := p.t; t.inline() {
		t.retire(isa.OpCompute, cycles)
		return
	}
	p.do(isa.Op{Kind: isa.OpCompute, Cycles: cycles})
}

func (p *proc) WB(r mem.Range)       { p.do(isa.Op{Kind: isa.OpWB, Range: r}) }
func (p *proc) INV(r mem.Range)      { p.do(isa.Op{Kind: isa.OpINV, Range: r}) }
func (p *proc) WBGlobal(r mem.Range) { p.do(isa.Op{Kind: isa.OpWB, Range: r, Level: isa.LevelGlobal}) }
func (p *proc) INVGlobal(r mem.Range) {
	p.do(isa.Op{Kind: isa.OpINV, Range: r, Level: isa.LevelGlobal})
}

func (p *proc) WBAll()    { p.do(isa.Op{Kind: isa.OpWBAll}) }
func (p *proc) WBAllMEB() { p.do(isa.Op{Kind: isa.OpWBAll, UseMEB: true}) }
func (p *proc) WBAllGlobal() {
	p.do(isa.Op{Kind: isa.OpWBAll, Level: isa.LevelGlobal})
}
func (p *proc) INVAll()     { p.do(isa.Op{Kind: isa.OpINVAll}) }
func (p *proc) INVAllLazy() { p.do(isa.Op{Kind: isa.OpINVAll, Lazy: true}) }
func (p *proc) INVAllGlobal() {
	p.do(isa.Op{Kind: isa.OpINVAll, Level: isa.LevelGlobal})
}

func (p *proc) WBCons(r mem.Range, cons int) {
	p.do(isa.Op{Kind: isa.OpWBCons, Range: r, Peer: cons})
}
func (p *proc) InvProd(r mem.Range, prod int) {
	p.do(isa.Op{Kind: isa.OpInvProd, Range: r, Peer: prod})
}
func (p *proc) WBConsAll(cons int)  { p.do(isa.Op{Kind: isa.OpWBConsAll, Peer: cons}) }
func (p *proc) InvProdAll(prod int) { p.do(isa.Op{Kind: isa.OpInvProdAll, Peer: prod}) }

func (p *proc) DMACopy(dst mem.Addr, src mem.Range, toBlock int) {
	p.do(isa.Op{Kind: isa.OpDMACopy, Addr: dst, Range: src, Peer: toBlock})
}

func (p *proc) SigPublish(ch int) { p.do(isa.Op{Kind: isa.OpSigPublish, ID: ch}) }
func (p *proc) INVSig(ch int)     { p.do(isa.Op{Kind: isa.OpINVSig, ID: ch}) }

func (p *proc) Acquire(lock int) { p.do(isa.Op{Kind: isa.OpAcquire, ID: lock}) }
func (p *proc) Release(lock int) { p.do(isa.Op{Kind: isa.OpRelease, ID: lock}) }
func (p *proc) Barrier(id int)   { p.do(isa.Op{Kind: isa.OpBarrier, ID: id}) }
func (p *proc) FlagSet(id int, v int64) {
	p.do(isa.Op{Kind: isa.OpFlagSet, ID: id, Value: mem.Word(v)})
}
func (p *proc) FlagWait(id int, threshold int64) {
	p.do(isa.Op{Kind: isa.OpFlagWait, ID: id, Value: mem.Word(threshold)})
}
