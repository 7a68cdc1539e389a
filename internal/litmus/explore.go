package litmus

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/topo"
)

// Exploration algorithms.
const (
	// AlgoDPOR is source-DPOR with sleep sets, backtrack sets over the
	// eviction-sound isa.Deps relation, and state-hash deduplication
	// (see dpor.go). It is the default: sound for every test, packed
	// layouts and eviction-bearing schedules included.
	AlgoDPOR = "dpor"
	// AlgoSwap is the original adjacent-swap canonicalization, retained
	// as the reference the DPOR explorer is regression-tested against.
	// It is only sound for runs without dirty evictions (the verdict
	// enforces this) and prunes nothing between packed variables.
	AlgoSwap = "adjacent-swap"
)

// Options bounds one exploration.
type Options struct {
	// Budget is the maximum number of scheduling decisions per schedule;
	// schedules that exceed it are cut off and counted as Truncated
	// (failing exhaustiveness). Default 256.
	Budget int
	// MaxSchedules caps the total number of runs (complete, truncated,
	// dead-end, or dedup-cut); hitting it sets Report.Capped. Default
	// 200000.
	MaxSchedules int
	// Algo selects the exploration algorithm: AlgoDPOR (default) or
	// AlgoSwap.
	Algo string
	// NoDedup disables the DPOR state-hash deduplication, for measuring
	// its contribution; the exploration is still sound, just larger.
	NoDedup bool
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 256
	}
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 200000
	}
	if o.Algo == "" {
		o.Algo = AlgoDPOR
	}
	return o
}

// litmusCores is the machine size explorations run on: a single block
// (the intra-block topology, scaled to four cores) is enough for every
// two- to four-thread test and keeps the machine cheap to build and reset.
const litmusCores = 4

// NewHierarchy builds the small hierarchy litmus-scale runs execute on:
// blocks×coresPerBlock cores with scaled-down caches (4 KB L1, 32 KB L2)
// — litmus footprints are a handful of lines, and small caches keep
// construction and Reset cheap. The explorer uses the single-block
// litmus machine, pooled and reset between replays; the fuzz harness
// (internal/fuzzgen) builds a fresh one per cell, multi-block machines
// included, for its tri-engine differential runs.
func NewHierarchy(cfg Config, blocks, coresPerBlock int) *core.Hierarchy {
	m := topo.NewCustom(blocks, coresPerBlock, 0, topo.DefaultParams())
	return core.New(m, core.Config{
		L1:         cache.Config{Bytes: 4 << 10, Ways: 4},
		L2:         cache.Config{Bytes: 32 << 10, Ways: 8},
		MEBEntries: cfg.MEBEntries,
		IEBEntries: cfg.IEBEntries,
	})
}

// litmusHierarchy builds the explorer's machine.
func litmusHierarchy(cfg Config) *core.Hierarchy {
	return NewHierarchy(cfg, 1, litmusCores)
}

// run status values.
const (
	runComplete = iota
	runDeadEnd
	runTruncated
	runError
	runCut
)

// machine is the hierarchy+engine+oracle one run executes on. One
// machine serves every replay of an Explore call: reset puts it back in
// its constructed state before each run, so a replay costs what it
// simulates instead of a whole machine's construction.
type machine struct {
	h      *core.Hierarchy
	e      *engine.Engine
	o      *oracle.Oracle
	regs   []mem.Word
	guests []engine.Guest
}

// machinePools holds one sync.Pool of idle machines per hierarchy shape
// (the only part of a Config the machine is built from), so concurrent
// explorations each draw their own machine and sequential ones reuse it.
var machinePools sync.Map // hierKey → *sync.Pool

type hierKey struct{ meb, ieb int }

func machinePool(cfg Config) *sync.Pool {
	k := hierKey{cfg.MEBEntries, cfg.IEBEntries}
	if p, ok := machinePools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := machinePools.LoadOrStore(k, &sync.Pool{New: func() any {
		h := litmusHierarchy(cfg)
		return &machine{h: h, e: engine.New(h, nil)}
	}})
	return p.(*sync.Pool)
}

// load readies the machine for test t under cfg: its registers and
// guests are rebuilt for t, and every replay then starts with reset.
func (m *machine) load(t Test, cfg Config) {
	if cap(m.regs) < t.Regs {
		m.regs = make([]mem.Word, t.Regs)
	}
	m.regs = m.regs[:t.Regs]
	m.guests = Guests(t, cfg, m.regs)
}

// reset returns the machine to the state a freshly built one would have
// for the loaded test, ready for one replay.
func (m *machine) reset() {
	for i := range m.regs {
		m.regs[i] = UnsetReg
	}
	m.h.Reset()
	m.e.Reset(m.guests)
	m.o = oracle.New(len(m.guests))
	m.e.SetObserver(m.o)
}

// finish folds one complete run into the report: it probes stale-read
// violations before the drain rewrites memory (so the "where" snapshot
// reflects the machine state the reader saw), drains, checks the final
// image, and records the outcome and any violations under sched.
func (m *machine) finish(t Test, rep *Report, sched string) {
	viol := m.o.Violations()
	wheres := make([]string, len(viol))
	for i, v := range viol {
		if v.Reader >= 0 {
			p := m.h.ProbeWord(v.Reader, v.Addr)
			wheres[i] = fmt.Sprintf("reader L1: present=%v dirty=%v val=%d; L2: present=%v val=%d; mem=%d",
				p.L1Present, p.L1Dirty, p.L1Val, p.L2Present, p.L2Val, p.MemVal)
		}
	}
	m.h.Drain()
	m.o.CheckFinal(m.h.Memory())
	if m.h.Evictions() > 0 {
		rep.EvictionRuns++
	}

	out := Outcome{Regs: append([]mem.Word(nil), m.regs...), Mem: make([]mem.Word, len(t.Final))}
	for i, v := range t.Final {
		out.Mem[i] = m.h.Memory().ReadWord(t.AddrOf(v))
	}
	key := out.Key()
	info := rep.Outcomes[key]
	if info == nil {
		info = &OutcomeInfo{Outcome: out, Key: key, Allowed: t.allowed(out), Sample: sched}
		rep.Outcomes[key] = info
	}
	info.Count++
	rep.Schedules++

	if m.o.Total() > 0 {
		rep.ViolationSchedules++
		for i, v := range m.o.Violations() {
			if len(rep.Violations) >= maxViolationsKept {
				break
			}
			vi := ViolationInfo{
				Class:    string(v.Class),
				Schedule: sched,
				Detail:   v.String(),
				Addr:     uint32(v.Addr),
				Reader:   v.Reader,
				Writer:   v.Writer,
			}
			if i < len(wheres) {
				vi.Where = wheres[i]
			}
			rep.Violations = append(rep.Violations, vi)
		}
	}
}

// replayer is the engine.Scheduler that drives one adjacent-swap run: it
// replays the prefix of candidate-index choices, then extends it with
// the first candidate the canonicalization allows, recording the
// candidate list at every decision for the driver's backtracking.
type replayer struct {
	prefix []int
	budget int
	pruned *int64

	trace  [][]engine.Candidate
	chosen []int
	status int
}

func (r *replayer) Pick(cands []engine.Candidate) int {
	d := len(r.chosen)
	if d >= r.budget {
		r.status = runTruncated
		return -1
	}
	r.trace = append(r.trace, append([]engine.Candidate(nil), cands...))
	var choice int
	if d < len(r.prefix) {
		choice = r.prefix[d]
		if choice >= len(cands) {
			// Deterministic replay guarantees identical candidate sets;
			// reaching this means the engine or a guest is nondeterministic.
			panic(fmt.Sprintf("litmus: replay diverged at decision %d: choice %d of %d candidates",
				d, choice, len(cands)))
		}
	} else {
		choice = -1
		for j := range cands {
			if r.prunedAt(d, cands, j) {
				*r.pruned++
				continue
			}
			choice = j
			break
		}
		if choice < 0 {
			// Every candidate is pruned: this prefix is a non-canonical
			// linearization whose representative is explored elsewhere.
			r.status = runDeadEnd
			return -1
		}
	}
	r.chosen = append(r.chosen, choice)
	return choice
}

// prunedAt implements the adjacent-swap canonicalization: candidate j
// at decision d is cut iff executing it here would create an adjacent
// independent inversion — the previous step came from a higher-numbered
// thread and the two ops commute (isa.Independent). Every schedule
// equivalence class keeps at least one inversion-free representative,
// so pruning these branches loses no outcomes; see also the eviction
// guard that protects the independence relation's soundness.
func (r *replayer) prunedAt(d int, cands []engine.Candidate, j int) bool {
	if d == 0 {
		return false
	}
	prev := r.trace[d-1][r.chosen[d-1]]
	c := cands[j]
	return prev.Thread > c.Thread && isa.Independent(prev.Op, c.Op)
}

// schedule renders the executed thread order as a comma-separated ID
// string ("0,0,1,0"), the replayable identity of the run.
func (r *replayer) schedule() string {
	var b strings.Builder
	for d, c := range r.chosen {
		if d > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(r.trace[d][c].Thread))
	}
	return b.String()
}

// maxErrorsKept caps Report.Errors; ErrorRuns keeps counting past it.
const maxErrorsKept = 8

// Explore drives the test through every schedule (up to opts) under
// cfg, aggregating outcomes, oracle violations, and exploration
// statistics. The returned error covers only malformed tests or bad
// options; machine or expectation failures are reported through
// Report/Verdict.
func Explore(t Test, cfg Config, opts Options) (*Report, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(t.Threads) > litmusCores {
		return nil, fmt.Errorf("litmus %s: %d threads exceed the %d-core litmus machine", t.Name, len(t.Threads), litmusCores)
	}
	opts = opts.withDefaults()
	var explore func(Test, Options, *Report, *machine)
	switch opts.Algo {
	case AlgoSwap:
		explore = exploreSwap
	case AlgoDPOR:
		explore = exploreDPOR
	default:
		return nil, fmt.Errorf("litmus %s: unknown exploration algorithm %q (want %q or %q)", t.Name, opts.Algo, AlgoDPOR, AlgoSwap)
	}
	rep := &Report{Test: t.Name, Config: cfg.Name, Algo: opts.Algo, Outcomes: map[string]*OutcomeInfo{}}
	pool := machinePool(cfg)
	m := pool.Get().(*machine)
	m.load(t, cfg)
	explore(t, opts, rep, m)
	// Only a machine whose exploration returned normally goes back: a
	// panic (a replay divergence) may leave guest coroutines suspended,
	// and that machine is dropped with them.
	pool.Put(m)
	return rep, nil
}

// exploreSwap is the adjacent-swap reference explorer: repeatedly run
// the engine from its initial state replaying a prefix of choices,
// extend canonically to completion, then backtrack to the deepest
// decision with an unexplored, unpruned candidate.
func exploreSwap(t Test, opts Options, rep *Report, m *machine) {
	prefix := []int{}
	for {
		if rep.Runs >= opts.MaxSchedules {
			rep.Capped = true
			break
		}
		r := runSwapOne(t, m, prefix, opts.Budget, rep)
		next, ok := swapBacktrack(r, &rep.Pruned)
		if !ok {
			break
		}
		prefix = next
	}
}

// swapBacktrack finds the deepest decision with an unexplored, unpruned
// candidate and returns the prefix that takes it; ok=false means the
// schedule space is exhausted.
func swapBacktrack(r *replayer, pruned *int64) ([]int, bool) {
	for d := len(r.chosen) - 1; d >= 0; d-- {
		for j := r.chosen[d] + 1; j < len(r.trace[d]); j++ {
			if r.prunedAt(d, r.trace[d], j) {
				*pruned++
				continue
			}
			next := make([]int, d+1)
			copy(next, r.chosen[:d])
			next[d] = j
			return next, true
		}
	}
	return nil, false
}

// runSwapOne executes one adjacent-swap schedule on the reset machine.
func runSwapOne(t Test, m *machine, prefix []int, budget int, rep *Report) *replayer {
	m.reset()
	r := &replayer{prefix: prefix, budget: budget, pruned: &rep.Pruned}
	m.e.SetScheduler(r)

	_, err := m.e.Run()
	rep.Runs++
	switch {
	case r.status == runDeadEnd:
		rep.DeadEnds++
		return r
	case r.status == runTruncated:
		rep.Truncated++
		return r
	case err != nil:
		r.status = runError
		rep.ErrorRuns++
		if len(rep.Errors) < maxErrorsKept {
			rep.Errors = append(rep.Errors, fmt.Sprintf("schedule %s: %v", r.schedule(), err))
		}
		return r
	}
	m.finish(t, rep, r.schedule())
	return r
}

// Run explores the test under cfg and judges the result in one call.
func Run(t Test, cfg Config, opts Options) (Verdict, *Report, error) {
	rep, err := Explore(t, cfg, opts)
	if err != nil {
		return Verdict{}, nil, err
	}
	return rep.Verdict(t), rep, nil
}
