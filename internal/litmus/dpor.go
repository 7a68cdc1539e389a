package litmus

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/isa"
)

// This file implements the exploration algorithm: source-style
// dynamic partial-order reduction (Flanagan/Godefroid backtrack sets
// with sleep sets) over the eviction-sound isa.Deps dependence relation,
// plus state-hash deduplication.
//
// The explorer maintains a persistent stack of decision nodes mirroring
// the current schedule prefix. Each run replays the stack's choices on a
// reset, pooled machine (the engine cannot snapshot mid-run, so every
// replay starts over from the initial state) and extends the frontier
// until the program completes, the step budget truncates it,
// every enabled thread is asleep (a provably redundant prefix), or the
// frontier state's fingerprint has already been fully explored (a dedup
// cut). Races detected while executing an op add the racing thread to
// the backtrack set of the deepest earlier node whose executed op
// depends on it; a thread whose subtree is fully explored joins its
// node's sleep set so no trace-equivalent schedule completes twice.
//
// Soundness of the dedup cut rests on three pieces:
//
//   - engine.StateFingerprint covers everything the future depends on:
//     hierarchy (memory, caches with LRU rank order, MEB/IEB, parked
//     WBs), sync controller, per-thread continuation state, and the
//     oracle's shadow state — so equal fingerprints mean identical
//     future outcome and violation sets.
//   - Sleep sets make caching conditional: a cached subtree was explored
//     while *its* sleep set suppressed some first steps, so a cut is
//     taken only when the cached entry's sleep set is a subset of the
//     current node's (the cut then skips a subset of what was covered).
//   - Backtrack propagation across cuts: a cut skips re-executing the
//     subtree, but ops inside it can still race with the *current*
//     prefix, which differs from the prefix the subtree was first
//     explored under. Every completed subtree therefore records the set
//     of distinct (thread, op) steps it executed, and a cut folds that
//     summary into the backtrack sets of every dependent node on the
//     current stack (a conservative superset of the updates a full
//     re-exploration would have made).
//
// The fingerprint includes the scheduling-decision count, so a state can
// never alias one of its own ancestors and the cut cannot create cycles.

// threadOp is one distinct (thread, op) step of a subtree, the unit of
// the cut-propagation summary. isa.Op is comparable.
type threadOp struct {
	thread int
	op     isa.Op
}

// addStep adds to to the step set sum (a slice without duplicates).
func addStep(sum []threadOp, to threadOp) []threadOp {
	if slices.Contains(sum, to) {
		return sum
	}
	return append(sum, to)
}

// threadSet is a set of thread IDs, bit q for thread q; the litmus
// machine has litmusCores threads at most.
type threadSet uint8

const _ = uint8(1 << (litmusCores - 1)) // threadSet holds every thread

func (s threadSet) has(q int) bool { return s&(1<<q) != 0 }

// dporNode is one decision on the persistent exploration stack.
type dporNode struct {
	cands  []engine.Candidate
	chosen int // index into cands of the child currently being explored
	// sleep holds threads whose subtrees here are already covered, and
	// sleepOps[q] the pending op sleeping thread q would execute;
	// entrySleep is the sleep set as of node creation, the key for dedup
	// registration.
	sleep      threadSet
	sleepOps   [litmusCores]isa.Op
	entrySleep threadSet
	backtrack  threadSet // threads scheduled for exploration from here
	done       threadSet // threads already explored from here
	fp         uint64
	fpOK       bool
	summary    []threadOp
	// tainted marks a subtree that was not fully explored (budget
	// truncation or an engine error below); tainted nodes never register
	// in the dedup table.
	tainted bool
}

// dedupEntry is one fully-explored subtree of a fingerprinted state.
type dedupEntry struct {
	sleep   threadSet // entry sleep set the subtree was explored under
	summary []threadOp
}

// dpor is the engine.Scheduler driving a source-DPOR exploration.
type dpor struct {
	opts Options
	rep  *Report
	dep  isa.Deps
	// stack holds the nodes by value; a slot's cands storage is reused
	// by the next node pushed there.
	stack []dporNode
	seen  map[uint64][]dedupEntry

	// m is the machine every replay runs on; the per-run state below is
	// reset by exploreDPOR before each replay.
	m          *machine
	depth      int
	status     int
	cutSummary []threadOp
	sched      []int
}

func exploreDPOR(t Test, opts Options, rep *Report, m *machine) {
	x := &dpor{
		opts: opts,
		rep:  rep,
		dep:  isa.Deps{MinSets: m.h.MinCacheSets()},
		seen: map[uint64][]dedupEntry{},
		m:    m,
	}
	for {
		if rep.Runs >= opts.MaxSchedules {
			rep.Capped = true
			break
		}
		m.reset()
		x.depth = 0
		x.status = runComplete
		x.cutSummary = nil
		x.sched = x.sched[:0]
		m.e.SetScheduler(x)
		_, err := m.e.Run()
		rep.Runs++

		var childSummary []threadOp
		taint := false
		switch {
		case x.status == runCut:
			rep.DedupCuts++
			childSummary = x.cutSummary
		case x.status == runDeadEnd:
			rep.DeadEnds++
		case x.status == runTruncated:
			rep.Truncated++
			taint = true
		case err != nil:
			x.status = runError
			rep.ErrorRuns++
			taint = true
			if len(rep.Errors) < maxErrorsKept {
				rep.Errors = append(rep.Errors, fmt.Sprintf("schedule %s: %v", x.schedString(), err))
			}
		default:
			m.finish(t, rep, x.schedString())
		}
		if !x.advance(childSummary, taint) {
			break
		}
	}
	rep.StatesSeen = len(x.seen)
}

// Pick replays the stack's choices, then extends the frontier (see the
// file comment for the full protocol).
func (x *dpor) Pick(cands []engine.Candidate) int {
	d := x.depth
	x.depth++
	if d < len(x.stack) {
		n := &x.stack[d]
		if len(cands) != len(n.cands) || cands[n.chosen].Thread != n.cands[n.chosen].Thread {
			// Deterministic replay guarantees identical candidate sets;
			// reaching this means the engine or a guest is nondeterministic.
			panic(fmt.Sprintf("litmus: dpor replay diverged at decision %d: %d candidates, stack recorded %d",
				d, len(cands), len(n.cands)))
		}
		x.sched = append(x.sched, n.cands[n.chosen].Thread)
		return n.chosen
	}
	if d >= x.opts.Budget {
		x.status = runTruncated
		return -1
	}

	// The node is built in the stack slot it will occupy, just past the
	// stack's end (pushed below only if the run goes on from here),
	// reusing that slot's cands storage.
	if len(x.stack) == cap(x.stack) {
		x.stack = append(x.stack, dporNode{})[:d]
	}
	n := &x.stack[:d+1][d]
	*n = dporNode{cands: append(n.cands[:0], cands...), chosen: -1}
	if d > 0 {
		// Inherit the parent's sleepers whose ops commute with the op
		// that led here; the executed op may have woken the rest.
		p := &x.stack[d-1]
		ex := p.cands[p.chosen]
		for q := range litmusCores {
			if p.sleep.has(q) && x.dep.Independent(ex.Op, p.sleepOps[q]) {
				n.sleep |= 1 << q
				n.sleepOps[q] = p.sleepOps[q]
			}
		}
	}
	n.entrySleep = n.sleep
	if !x.opts.NoDedup {
		if fp, ok := x.m.e.StateFingerprint(); ok {
			n.fp, n.fpOK = fp, true
		}
	}
	if n.fpOK {
		if ent := x.lookup(n.fp, n.sleep); ent != nil {
			x.status = runCut
			x.cutSummary = ent.summary
			x.foldCutSummary(ent.summary)
			return -1
		}
	}

	choice := -1
	for j, c := range n.cands {
		if !n.sleep.has(c.Thread) {
			choice = j
			break
		}
	}
	if choice < 0 {
		// Every enabled thread is asleep: any schedule from here is
		// trace-equivalent to one already explored.
		x.status = runDeadEnd
		x.rep.Pruned += int64(len(n.cands))
		return -1
	}
	c := n.cands[choice]
	x.raceUpdate(d, c)
	n.chosen = choice
	n.backtrack |= 1 << c.Thread
	n.done |= 1 << c.Thread
	x.stack = x.stack[:d+1]
	x.sched = append(x.sched, c.Thread)
	return choice
}

// raceUpdate performs the DPOR backtrack-set update for executing c from
// stack depth k: the deepest earlier node whose executed op is dependent
// with c's (and from another thread) must also try c's thread — or, if
// c's thread was not enabled there, everything that was.
func (x *dpor) raceUpdate(k int, c engine.Candidate) {
	for i := k - 1; i >= 0; i-- {
		n := &x.stack[i]
		ex := n.cands[n.chosen]
		if ex.Thread == c.Thread || x.dep.Independent(ex.Op, c.Op) {
			continue
		}
		n.addBacktrack(c.Thread)
		return
	}
}

// foldCutSummary applies the backtrack updates a re-exploration of the
// cut subtree would have made: every step the subtree executed is
// raced against every dependent node of the current stack. Scanning all
// dependent nodes (not just the deepest) over-approximates, which only
// adds schedules, never loses them.
func (x *dpor) foldCutSummary(sum []threadOp) {
	for _, to := range sum {
		for i := len(x.stack) - 1; i >= 0; i-- {
			n := &x.stack[i]
			ex := n.cands[n.chosen]
			if ex.Thread == to.thread || x.dep.Independent(ex.Op, to.op) {
				continue
			}
			n.addBacktrack(to.thread)
		}
	}
}

// addBacktrack schedules thread q for exploration at n if it is enabled
// there, otherwise conservatively schedules every enabled thread.
func (n *dporNode) addBacktrack(q int) {
	var enabled threadSet
	for _, c := range n.cands {
		if c.Thread == q {
			n.backtrack |= 1 << q
			return
		}
		enabled |= 1 << c.Thread
	}
	n.backtrack |= enabled
}

// advance retires the just-finished child subtree (whose executed-step
// summary is childSummary) and moves the stack to the next unexplored
// backtrack choice, popping fully-explored nodes into the dedup table.
// It returns false when the whole tree is explored.
func (x *dpor) advance(childSummary []threadOp, taint bool) bool {
	for len(x.stack) > 0 {
		n := &x.stack[len(x.stack)-1]
		if taint {
			n.tainted = true
		}
		ex := n.cands[n.chosen]
		for _, to := range childSummary {
			n.summary = addStep(n.summary, to)
		}
		n.summary = addStep(n.summary, threadOp{ex.Thread, ex.Op})
		// The explored thread joins the sleep set: any schedule that
		// delays it past an independent op is equivalent to one of the
		// schedules just covered.
		n.sleep |= 1 << ex.Thread
		n.sleepOps[ex.Thread] = ex.Op

		for j, c := range n.cands {
			q := c.Thread
			if !n.backtrack.has(q) || n.done.has(q) || n.sleep.has(q) {
				continue
			}
			x.raceUpdate(len(x.stack)-1, c)
			n.chosen = j
			n.done |= 1 << q
			return true
		}

		x.rep.Pruned += int64(len(n.cands) - bits.OnesCount8(uint8(n.done)))
		if n.fpOK && !n.tainted {
			x.register(n)
		}
		childSummary = n.summary
		taint = n.tainted
		x.stack = x.stack[:len(x.stack)-1]
	}
	return false
}

// lookup returns a dedup entry proving the state behind fp was fully
// explored under a sleep set no stronger than (a subset of) the current
// one.
func (x *dpor) lookup(fp uint64, sleep threadSet) *dedupEntry {
	ents := x.seen[fp]
	for i := range ents {
		if ents[i].sleep&^sleep == 0 {
			return &ents[i]
		}
	}
	return nil
}

// register records a fully-explored node in the dedup table unless an
// entry with a weaker (subset) sleep set already covers it.
func (x *dpor) register(n *dporNode) {
	if x.lookup(n.fp, n.entrySleep) != nil {
		return
	}
	x.seen[n.fp] = append(x.seen[n.fp], dedupEntry{sleep: n.entrySleep, summary: n.summary})
}

func (x *dpor) schedString() string {
	var b strings.Builder
	for i, t := range x.sched {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}
