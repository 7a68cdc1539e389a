package litmus

import (
	"fmt"
	"math/bits"
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

// threadOp is one distinct (thread, op) step of an exploration, the unit
// of the cut-propagation summary. isa.Op is comparable.
type threadOp struct {
	thread int
	op     isa.Op
}

// stepSet is a set of an exploration's steps, bit i for the step interned
// as i (see dpor.intern).
type stepSet []uint64

// with returns s plus step i, growing s's own storage as needed.
func (s stepSet) with(i int32) stepSet {
	w := int(i >> 6)
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << (i & 63)
	return s
}

// union returns s plus every step of o, growing s's own storage as
// needed.
func (s stepSet) union(o stepSet) stepSet {
	for len(s) < len(o) {
		s = append(s, 0)
	}
	for w, bm := range o {
		s[w] |= bm
	}
	return s
}

// threadSet is a set of thread IDs, bit q for thread q; the litmus
// machine has litmusCores threads at most.
type threadSet uint8

const _ = uint8(1 << (litmusCores - 1)) // threadSet holds every thread

func (s threadSet) has(q int) bool { return s&(1<<q) != 0 }

// dporNode is one decision on the persistent exploration stack.
type dporNode struct {
	cands  []engine.Candidate
	chosen int   // index into cands of the child currently being explored
	step   int32 // interned step of cands[chosen]
	// sleep holds threads whose subtrees here are already covered, and
	// sleepSteps[q] the interned step sleeping thread q would execute;
	// entrySleep is the sleep set as of node creation, the key for dedup
	// registration.
	sleep      threadSet
	sleepSteps [litmusCores]int32
	entrySleep threadSet
	backtrack  threadSet // threads scheduled for exploration from here
	done       threadSet // threads already explored from here
	fp         uint64
	fpOK       bool
	// summary holds every step executed in the subtrees explored from
	// here so far.
	summary stepSet
	// tainted marks a subtree that was not fully explored (budget
	// truncation or an engine error below); tainted nodes never register
	// in the dedup table.
	tainted bool
}

// dpor is the engine.Scheduler driving a source-DPOR exploration. It
// lives on the pooled machine, and begin clears it for each exploration
// while keeping its storage: the stack slots and their candidate and
// summary buffers, the step table and the dedup table.
type dpor struct {
	opts Options
	rep  *Report
	dep  isa.Deps
	// stack holds the nodes by value; a slot's cands and summary storage
	// is reused by the next node pushed there.
	stack []dporNode
	seen  dedupTable
	// steps interns this exploration's distinct (thread, op) steps, and
	// stepsOf[q] lists the indices of thread q's.
	steps   []threadOp
	stepsOf [litmusCores][]int32

	// m is the machine every replay runs on; the per-run state below is
	// reset by exploreDPOR before each replay.
	m          *machine
	depth      int
	status     int
	cutSummary stepSet
	sched      []int
}

// begin readies x for a new exploration on m.
func (x *dpor) begin(opts Options, rep *Report, m *machine) {
	x.opts, x.rep, x.m = opts, rep, m
	x.dep = isa.Deps{MinSets: m.h.MinCacheSets()}
	x.stack = x.stack[:0]
	x.seen.reset()
	x.steps = x.steps[:0]
	for q := range x.stepsOf {
		x.stepsOf[q] = x.stepsOf[q][:0]
	}
}

// intern returns c's step index, adding the step if it is new.
func (x *dpor) intern(c *engine.Candidate) int32 {
	for _, i := range x.stepsOf[c.Thread] {
		if x.steps[i].op == c.Op {
			return i
		}
	}
	i := int32(len(x.steps))
	x.steps = append(x.steps, threadOp{c.Thread, c.Op})
	x.stepsOf[c.Thread] = append(x.stepsOf[c.Thread], i)
	return i
}

func exploreDPOR(t Test, opts Options, rep *Report, m *machine) {
	x := &m.x
	x.begin(opts, rep, m)
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

		var childSummary stepSet
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
				rep.Errors = append(rep.Errors, fmt.Sprintf("schedule %s: %v", schedString(x.sched), err))
			}
		default:
			m.finish(t, rep, x.sched)
		}
		if !x.advance(childSummary, taint) {
			break
		}
	}
	rep.StatesSeen = len(x.seen.heads)
	x.rep, x.m = nil, nil
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
	// reusing that slot's cands and summary storage.
	if len(x.stack) == cap(x.stack) {
		x.stack = append(x.stack, dporNode{})[:d]
	}
	n := &x.stack[:d+1][d]
	*n = dporNode{cands: append(n.cands[:0], cands...), chosen: -1, summary: n.summary[:0]}
	if d > 0 {
		// Inherit the parent's sleepers whose ops commute with the op
		// that led here; the executed op may have woken the rest.
		p := &x.stack[d-1]
		ex := &x.steps[p.step].op
		for q := range litmusCores {
			if p.sleep.has(q) && x.dep.Independent(*ex, x.steps[p.sleepSteps[q]].op) {
				n.sleep |= 1 << q
				n.sleepSteps[q] = p.sleepSteps[q]
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
		if ent := x.seen.lookup(n.fp, n.sleep); ent != nil {
			x.status = runCut
			x.cutSummary = ent.summary
			x.foldCutSummary(ent.summary)
			return -1
		}
	}

	choice := -1
	for j := range n.cands {
		if !n.sleep.has(n.cands[j].Thread) {
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
	c := &n.cands[choice]
	x.raceUpdate(d, c)
	n.chosen = choice
	n.step = x.intern(c)
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
func (x *dpor) raceUpdate(k int, c *engine.Candidate) {
	for i := k - 1; i >= 0; i-- {
		n := &x.stack[i]
		ex := &x.steps[n.step]
		if ex.thread == c.Thread || x.dep.Independent(ex.op, c.Op) {
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
func (x *dpor) foldCutSummary(sum stepSet) {
	for w, bm := range sum {
		for ; bm != 0; bm &= bm - 1 {
			to := &x.steps[w*64+bits.TrailingZeros64(bm)]
			for i := len(x.stack) - 1; i >= 0; i-- {
				n := &x.stack[i]
				ex := &x.steps[n.step]
				if ex.thread == to.thread || x.dep.Independent(ex.op, to.op) {
					continue
				}
				n.addBacktrack(to.thread)
			}
		}
	}
}

// addBacktrack schedules thread q for exploration at n if it is enabled
// there, otherwise conservatively schedules every enabled thread.
func (n *dporNode) addBacktrack(q int) {
	var enabled threadSet
	for i := range n.cands {
		t := n.cands[i].Thread
		if t == q {
			n.backtrack |= 1 << q
			return
		}
		enabled |= 1 << t
	}
	n.backtrack |= enabled
}

// advance retires the just-finished child subtree (whose executed-step
// summary is childSummary) and moves the stack to the next unexplored
// backtrack choice, popping fully-explored nodes into the dedup table.
// It returns false when the whole tree is explored.
func (x *dpor) advance(childSummary stepSet, taint bool) bool {
	for len(x.stack) > 0 {
		n := &x.stack[len(x.stack)-1]
		if taint {
			n.tainted = true
		}
		q := x.steps[n.step].thread
		n.summary = n.summary.union(childSummary).with(n.step)
		// The explored thread joins the sleep set: any schedule that
		// delays it past an independent op is equivalent to one of the
		// schedules just covered.
		n.sleep |= 1 << q
		n.sleepSteps[q] = n.step

		for j := range n.cands {
			c := &n.cands[j]
			q := c.Thread
			if !n.backtrack.has(q) || n.done.has(q) || n.sleep.has(q) {
				continue
			}
			x.raceUpdate(len(x.stack)-1, c)
			n.chosen = j
			n.step = x.intern(c)
			n.done |= 1 << q
			return true
		}

		x.rep.Pruned += int64(len(n.cands) - bits.OnesCount8(uint8(n.done)))
		if n.fpOK && !n.tainted && x.seen.lookup(n.fp, n.entrySleep) == nil {
			// Registered unless an entry with a weaker (subset) sleep set
			// already covers the state.
			x.seen.add(n.fp, n.entrySleep, n.summary)
		}
		childSummary = n.summary
		taint = n.tainted
		x.stack = x.stack[:len(x.stack)-1]
	}
	return false
}

// schedString renders a schedule, the thread run at each decision, as a
// comma-separated list.
func schedString(sched []int) string {
	var b strings.Builder
	for i, t := range sched {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// dedupTable maps the fingerprints of fully explored states to their
// dedup entries. The pooled explorer keeps it, and reset empties it for
// the next exploration while keeping its storage.
type dedupTable struct {
	heads map[uint64]int32 // a fingerprint's first entry in ents
	ents  []dedupEntry
	sums  []uint64 // storage of the entries' summaries
}

// dedupEntry is one fully-explored subtree of a fingerprinted state.
type dedupEntry struct {
	sleep   threadSet // entry sleep set the subtree was explored under
	next    int32     // next entry of the same fingerprint, or -1
	summary stepSet
}

func (d *dedupTable) reset() {
	if d.heads == nil {
		d.heads = make(map[uint64]int32)
	}
	clear(d.heads)
	d.ents = d.ents[:0]
	d.sums = d.sums[:0]
}

// lookup returns the first entry registered for fp whose sleep set is no
// stronger than (a subset of) sleep: proof that the state behind fp was
// fully explored under it.
func (d *dedupTable) lookup(fp uint64, sleep threadSet) *dedupEntry {
	e, ok := d.heads[fp]
	if !ok {
		return nil
	}
	for ; e >= 0; e = d.ents[e].next {
		if d.ents[e].sleep&^sleep == 0 {
			return &d.ents[e]
		}
	}
	return nil
}

// add registers a fully-explored subtree of fp's state, explored under
// sleep, that executed the steps in summary. Entries of one fingerprint
// chain in registration order.
func (d *dedupTable) add(fp uint64, sleep threadSet, summary stepSet) {
	start := len(d.sums)
	d.sums = append(d.sums, summary...)
	e := int32(len(d.ents))
	d.ents = append(d.ents, dedupEntry{sleep: sleep, next: -1, summary: d.sums[start:len(d.sums):len(d.sums)]})
	i, ok := d.heads[fp]
	if !ok {
		d.heads[fp] = e
		return
	}
	for d.ents[i].next >= 0 {
		i = d.ents[i].next
	}
	d.ents[i].next = e
}
