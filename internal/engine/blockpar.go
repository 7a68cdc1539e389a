package engine

// Block-parallel execution (DESIGN.md §11). The deterministic pipelined
// scheduler is decomposed into per-block shards that run concurrently on
// their own goroutines, plus a coordinator that serializes everything
// crossing a shard boundary. The scheme is conservative parallel
// discrete-event simulation specialized to the incoherent hierarchy's
// locality structure:
//
//   - Every thread belongs to exactly one shard (its core's block). A
//     shard owns the state only its cores can touch: their L1s, MEBs and
//     IEBs, the block's L2, and the block's counter/traffic slices.
//   - The hierarchy classifies each op as shard-LOCAL (provably touches
//     only shard-owned state) or GLOBAL (sync ops, anything reaching the
//     L3, backing memory, the sync controller, or another block).
//     Classification is conservative: when in doubt, GLOBAL.
//   - Each shard executes its own threads in (local clock, thread ID)
//     order — exactly the serial run-queue order restricted to the
//     shard. A shard with NO blocked threads free-runs: it executes local ops
//     without looking at any sibling, because local ops of different
//     shards commute and nothing can be delivered into a shard whose
//     threads are all runnable (sync grants target blocked threads
//     only; cross-block DMA is checked separately, below). A shard WITH
//     a blocked thread is horizon-bounded: it may only execute a local
//     op whose key is strictly below every other shard's published
//     clock. Published clocks are lower bounds on the keys of any op a
//     shard could still produce, so the bound guarantees the shard
//     never runs past a global op that could wake its blocked thread —
//     the grant would have to interleave below the shard's frontier.
//     (Whether a shard has blocked threads only changes at the
//     coordinator, so the mode is fixed for a whole phase.)
//   - GLOBAL ops execute on the coordinator, one at a time, in global
//     (time, ID) key order, with every shard quiescent — the coordinator
//     is simply the serial engine applied to the frontier's minimum. Sync
//     grants produced there re-enter the woken threads' shard queues
//     before any shard resumes.
//
// Why results are byte-identical to the serial engine: within a shard the
// execution order equals the serial order restricted to the shard's
// threads; ops of different shards that commute (local/local on disjoint
// state, local/global on disjoint state) may reorder freely; every
// non-commuting pair is either two GLOBAL ops (totally ordered by the
// coordinator's frontier-minimum rule) or a wake interleaving below a
// shard's frontier (excluded by the horizon rule: when a thread blocks
// at key s, every shard's pending key is >= s, so the grant-producing
// global has key >= s and the blocked thread's shard stays bounded
// below it until the wake). Latencies, stalls, counters and traffic are
// functions of the state each op observes, which is therefore
// identical; per-block counter and traffic shards are merged in fixed
// block order at the end.
//
// The one op that deposits state into a FOREIGN shard is cross-block
// DMACopy. A free-running target may already have simulated past the
// transfer's key, which would reorder the deposit against the target's
// local ops; the coordinator detects that precisely (the target shard's
// max executed key exceeds the DMA's key) and fails the run loudly
// rather than return silently divergent results. DMA workloads that
// sync the target block before the transfer — the paper's programming
// model — never trip the check, because the target's threads are
// blocked and its shard horizon-bounded below the transfer.
//
// The executor engages only for the default pipelined protocol with no
// observer and no recorder attached (their event streams are defined by
// global call order, so those runs stay serial), and only when the
// hierarchy reports more than one shard.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// ShardedHierarchy is implemented by hierarchies that can partition their
// state by block and vouch for which ops stay inside one shard. The
// engine detects it and switches to the block-parallel executor when
// ParallelShards returns more than one.
type ShardedHierarchy interface {
	Hierarchy
	// ParallelShards returns the number of independent shards (blocks),
	// or 1 to disable block parallelism.
	ParallelShards() int
	// ShardOf maps a core/thread id to its shard index.
	ShardOf(core int) int
	// OpLocal reports whether executing op on core provably touches only
	// shard-owned state. It must not mutate any state, and must be
	// conservative: false whenever the answer depends on state outside
	// the shard.
	OpLocal(core int, op *isa.Op) bool
}

// maxParThreads bounds thread ids so they pack into the low 16 bits of a
// clock key. Larger machines fall back to the serial scheduler.
const maxParThreads = 1 << 16

// maxKey is the published clock of a shard with nothing pending.
const maxKey = ^uint64(0)

// parPhaseBudget caps the ops one shard executes per phase, bounding the
// coordinator's control latency (ctx polls, watchdog) without affecting
// results: a budget quiesce just splits a phase in two.
const parPhaseBudget = 1 << 15

// key orders (time, thread id) lexicographically in one uint64 compare.
// Simulated clocks stay far below 2^47 cycles, so the shift is safe.
func key(t *thread) uint64 { return uint64(t.time)<<16 | uint64(t.id) }

// parShard is one block's scheduler state.
type parShard struct {
	idx int
	rq  runq

	// clock is the shard's published lower bound on the key of any op it
	// may still execute this phase; maxKey when it has nothing pending.
	// quiet is set (after the final clock store) when the shard's phase
	// goroutine has gone quiescent. Both are read by sibling shards'
	// horizon checks.
	clock atomic.Uint64
	quiet atomic.Bool

	// held is the thread in hand across a quiesce; heldOp its already
	// popped op (nil after a budget quiesce: re-fetched on resume; the
	// pointer aliases the guest's ring slot and is stable because the
	// guest is not resumed until the op executes). heldGlobal marks that
	// heldOp awaits the coordinator.
	held       *thread
	heldOp     *isa.Op
	heldGlobal bool

	// blocked counts the shard's threads parked in the sync controller;
	// maintained by the coordinator (block/wake). freeRun is set at
	// phase release when blocked == 0: the shard may then ignore the
	// horizon entirely. maxExec is the largest key the shard has
	// executed, read by the coordinator (while the shard is quiescent)
	// for the cross-block DMA ordering check.
	blocked int
	freeRun bool
	maxExec uint64

	// Per-shard accumulators, merged by the coordinator: op counts by
	// kind, ops executed in the current phase, retirements/progress for
	// the watchdog, and the first guest error.
	ops        [isa.NumOpKinds]int64
	phaseSteps int64
	progressed bool
	err        error

	resume chan struct{}
}

// parGroup is the shared state of one block-parallel run.
type parGroup struct {
	e       *Engine
	sh      ShardedHierarchy
	shards  []*parShard
	shardOf []int // thread id -> shard index

	phase sync.WaitGroup // running shards in the current phase
	join  sync.WaitGroup // shard goroutine lifetimes
}

// pendingKey is the key of the shard's next op (held thread first, then
// the queue minimum), or maxKey when it has none.
func (p *parShard) pendingKey() uint64 {
	if p.held != nil {
		return key(p.held)
	}
	if m := p.rq.peek(); m != nil {
		return key(m)
	}
	return maxKey
}

// runBlockParallel is the coordinator loop. Each round it executes
// GLOBAL ops serially while they are the global frontier minimum, then
// releases every shard whose next op is local for one concurrent phase,
// and waits for quiescence. See the file comment for the protocol.
func (e *Engine) runBlockParallel(ctx context.Context, sh ShardedHierarchy) (*Result, error) {
	n := sh.ParallelShards()
	g := &parGroup{e: e, sh: sh, shards: make([]*parShard, n), shardOf: make([]int, len(e.ts))}
	for i := range g.shards {
		g.shards[i] = &parShard{idx: i, resume: make(chan struct{}, 1)}
		g.shards[i].clock.Store(maxKey)
	}
	// Each shard's queue serves the ID range from its first thread to its
	// last.
	lo, hi := make([]int, n), make([]int, n)
	for i := range lo {
		lo[i] = -1
	}
	for _, t := range e.ts {
		s := sh.ShardOf(t.id)
		if s < 0 || s >= n {
			return nil, fmt.Errorf("engine: ShardOf(%d) = %d out of range [0,%d)", t.id, s, n)
		}
		g.shardOf[t.id] = s
		if lo[s] < 0 {
			lo[s] = t.id
		}
		hi[s] = t.id + 1
	}
	for i, p := range g.shards {
		if lo[i] >= 0 {
			p.rq.reset(e.ts[lo[i]:hi[i]])
		}
	}
	for _, t := range e.ts {
		g.shards[g.shardOf[t.id]].rq.push(t)
	}
	e.par = g
	defer func() {
		e.par = nil
		for _, p := range g.shards {
			p.rq.tally()
		}
	}()

	for _, p := range g.shards {
		g.join.Add(1)
		go func(p *parShard) {
			defer g.join.Done()
			for range p.resume {
				p.runPhase(e, g)
				g.phase.Done()
			}
		}(p)
	}
	stopShards := func() {
		for _, p := range g.shards {
			close(p.resume)
		}
		g.join.Wait()
	}
	defer stopShards()

	res := e.newResult()
	limit := e.NoProgressLimit
	if limit <= 0 {
		limit = DefaultNoProgressLimit
	}
	stop := ctx.Done()
	var idle int64
	for {
		if stop != nil {
			select {
			case <-stop:
				e.shutdown()
				return nil, fmt.Errorf("engine: run canceled: %w", ctx.Err())
			default:
			}
		}

		// Serial frontier: execute the minimum pending op while it is
		// GLOBAL. The coordinator may pop and classify freely — every
		// shard is quiescent here.
		localFrontier := false
		for {
			var p *parShard
			min := maxKey
			for _, s := range g.shards {
				if k := s.pendingKey(); k < min {
					min, p = k, s
				}
			}
			if p == nil {
				if e.allDone() {
					return e.finishPar(g, res)
				}
				err := e.deadlockError()
				e.shutdown()
				return nil, err
			}
			if p.held == nil {
				p.held = p.rq.pop()
			}
			if p.heldOp == nil {
				op, ok := e.nextOp(p.held)
				if !ok {
					p.held.state = done
					p.held = nil
					e.progressed = true
					idle = 0
					continue
				}
				p.heldOp = op
				p.heldGlobal = op.Kind.IsSync() || !sh.OpLocal(p.held.id, op)
			}
			if !p.heldGlobal {
				localFrontier = true
				break
			}
			t, op := p.held, p.heldOp
			p.held, p.heldOp = nil, nil
			if op.Kind == isa.OpDMACopy && op.Peer >= 0 && op.Peer < len(g.shards) &&
				op.Peer != g.shardOf[t.id] && g.shards[op.Peer].maxExec > key(t) {
				err := fmt.Errorf("engine: block-parallel run reordered a cross-block DMA: "+
					"target block %d already simulated past cycle %d; sync the target "+
					"before the transfer or run serially", op.Peer, t.time)
				e.shutdown()
				return nil, err
			}
			runnable, err := e.stepPipelined(t, op, res)
			if err != nil {
				e.shutdown()
				return nil, err
			}
			if runnable {
				p.rq.push(t)
			}
			if e.progressed {
				e.progressed = false
				idle = 0
			} else if idle++; idle >= limit {
				lerr := &LivelockError{Steps: idle, Blocked: e.blockedIDs()}
				e.shutdown()
				return nil, lerr
			}
		}
		if !localFrontier {
			continue
		}

		// Concurrent phase: release every shard whose next op is not a
		// parked GLOBAL. Mark them running and publish their clocks
		// before any goroutine starts, so no shard can race past a
		// sibling's pending key.
		running := g.shards[:0:0]
		for _, p := range g.shards {
			if p.heldGlobal && p.held != nil {
				p.clock.Store(key(p.held))
				continue
			}
			if p.held == nil && p.rq.len() == 0 {
				p.clock.Store(maxKey)
				continue
			}
			p.freeRun = p.blocked == 0
			p.quiet.Store(false)
			p.clock.Store(p.pendingKey())
			running = append(running, p)
		}
		g.phase.Add(len(running))
		for _, p := range running {
			p.resume <- struct{}{}
		}
		g.phase.Wait()

		var steps int64
		prog := false
		for _, p := range running {
			if p.err != nil {
				e.shutdown()
				return nil, p.err
			}
			steps += p.phaseSteps
			p.phaseSteps = 0
			if p.progressed {
				p.progressed = false
				prog = true
			}
		}
		if prog {
			idle = 0
		} else if idle += steps; idle >= limit {
			lerr := &LivelockError{Steps: idle, Blocked: e.blockedIDs()}
			e.shutdown()
			return nil, lerr
		}
	}
}

// finishPar merges per-shard op counts and folds per-thread outcomes.
func (e *Engine) finishPar(g *parGroup, res *Result) (*Result, error) {
	for _, p := range g.shards {
		for k, n := range p.ops {
			res.Ops[k] += n
		}
	}
	return e.finish(res)
}

// runPhase executes shard-local ops until the shard parks at a GLOBAL
// op, is horizon-blocked by a quiescent sibling, drains, or exhausts its
// phase budget. Free-running shards (no blocked threads this phase) skip
// the horizon entirely and only stop at a global, the drain, or the
// budget. It runs on the shard's goroutine; everything it touches is
// shard-owned or read through the clock/quiet atomics.
func (p *parShard) runPhase(e *Engine, g *parGroup) {
	t, op := p.held, p.heldOp
	p.held, p.heldOp = nil, nil
	// horizon caches the last observed minimum of the sibling clocks;
	// within a phase sibling clocks only grow, so any key below it needs
	// no rescan.
	var horizon uint64
	quiesce := func(global bool) {
		p.held, p.heldOp, p.heldGlobal = t, op, global
		if t != nil {
			p.clock.Store(key(t))
		} else {
			p.clock.Store(maxKey)
		}
		p.quiet.Store(true)
	}
	for {
		if t == nil {
			if t = p.rq.pop(); t == nil {
				quiesce(false)
				return
			}
		}
		if op == nil {
			var ok bool
			if op, ok = e.nextOp(t); !ok {
				t.state = done
				p.progressed = true
				t = nil
				continue
			}
		}
		k := key(t)
		p.clock.Store(k)
		if op.Kind.IsSync() || !g.sh.OpLocal(t.id, op) {
			quiesce(true)
			return
		}
		if !p.freeRun && k >= horizon {
			var ok bool
			if horizon, ok = p.waitHorizon(g, k); !ok {
				quiesce(false)
				return
			}
		}
		p.ops[op.Kind]++
		val, err := e.execOp(t, op)
		if err != nil {
			p.err = err
			quiesce(false)
			return
		}
		if k > p.maxExec {
			p.maxExec = k
		}
		if op.Kind == isa.OpLoad || op.Kind == isa.OpLoadU {
			t.loadVal = val
		}
		op = nil
		if p.phaseSteps++; p.phaseSteps >= parPhaseBudget {
			quiesce(false)
			return
		}
		if p.rq.before(t) {
			t = p.rq.swapMin(t)
		}
	}
}

// horizonSpinLimit bounds how many times a horizon-blocked shard yields
// before giving the phase back to the coordinator. Unbounded spinning is
// pathological when GOMAXPROCS is below the shard count; quiescing
// instead costs one extra coordinator round and nothing semantically.
const horizonSpinLimit = 64

// waitHorizon blocks until every sibling shard's published clock exceeds
// k, returning the observed minimum (ok=true). If the blocking sibling
// has itself gone quiescent, or the spin budget runs out, the shard must
// quiesce too (ok=false): the coordinator advances the frontier then.
func (p *parShard) waitHorizon(g *parGroup, k uint64) (uint64, bool) {
	for spins := 0; ; spins++ {
		min := maxKey
		var owner *parShard
		for _, s := range g.shards {
			if s == p {
				continue
			}
			if c := s.clock.Load(); c < min {
				min, owner = c, s
			}
		}
		if k < min {
			return min, true
		}
		if owner.quiet.Load() || spins >= horizonSpinLimit {
			return 0, false
		}
		runtime.Gosched()
	}
}
