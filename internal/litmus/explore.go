package litmus

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/topo"
)

// AlgoDPOR names the exploration algorithm in every Report: source-DPOR
// with sleep sets, backtrack sets over the eviction-sound isa.Deps
// relation, and state-hash deduplication (see dpor.go). It is sound for
// every test, packed layouts and eviction-bearing schedules included.
const AlgoDPOR = "dpor"

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
// simulates instead of a whole machine's construction. The engine keeps
// its guest coroutines across those replays until Explore closes it.
type machine struct {
	h      *core.Hierarchy
	e      *engine.Engine
	o      *oracle.Oracle
	regs   []mem.Word
	guests []engine.Guest
	// x is the explorer, kept with its storage for the machine's next
	// exploration; final and key are finish's outcome buffers.
	x     dpor
	final []mem.Word
	key   []byte
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
		return &machine{h: h, e: engine.New(h, nil), o: oracle.New(0)}
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
	m.o.Reset(len(m.guests))
	m.e.SetObserver(m.o)
}

// finish folds one complete run into the report: it probes stale-read
// violations before the drain rewrites memory (so the "where" snapshot
// reflects the machine state the reader saw), drains, checks the final
// image, and records the outcome and any violations under sched, the
// run's thread per decision. The outcome is keyed in the machine's own
// buffers, so a run that repeats a known outcome allocates nothing.
func (m *machine) finish(t Test, rep *Report, sched []int) {
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

	m.final = m.final[:0]
	for _, v := range t.Final {
		m.final = append(m.final, m.h.Memory().ReadWord(t.AddrOf(v)))
	}
	out := Outcome{Regs: m.regs, Mem: m.final}
	m.key = out.appendKey(m.key[:0])
	info := rep.Outcomes[string(m.key)]
	if info == nil {
		// Copies whose nil-ness does not depend on the buffers' history
		// (Regs nil without registers, Mem never nil), so that reports
		// from fresh and reused machines compare equal.
		out = Outcome{Regs: append([]mem.Word(nil), m.regs...), Mem: append(make([]mem.Word, 0, len(m.final)), m.final...)}
		key := string(m.key)
		info = &OutcomeInfo{Outcome: out, Key: key, Allowed: t.allowed(out), Sample: schedString(sched)}
		rep.Outcomes[key] = info
	}
	info.Count++
	rep.Schedules++

	if m.o.Total() > 0 {
		rep.ViolationSchedules++
		sched := schedString(sched)
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
	pool := machinePool(cfg)
	m := pool.Get().(*machine)
	rep := m.explore(t, cfg, opts.withDefaults())
	pool.Put(m)
	return rep, nil
}

// explore runs one exploration of t under cfg on m. The pool may drop an
// idle machine at any GC, so none goes back with coroutines parked:
// explore ends them when it is done, and the machine's next exploration
// starts its own. Only a machine whose exploration returned normally
// goes back to the pool: a panic (a replay divergence) leaves its guests
// suspended, and that machine is dropped with them.
func (m *machine) explore(t Test, cfg Config, opts Options) *Report {
	rep := &Report{Test: t.Name, Config: cfg.Name, Algo: AlgoDPOR, Outcomes: map[string]*OutcomeInfo{}}
	m.load(t, cfg)
	exploreDPOR(t, opts, rep, m)
	m.e.Close()
	return rep
}

// Run explores the test under cfg and judges the result in one call.
func Run(t Test, cfg Config, opts Options) (Verdict, *Report, error) {
	rep, err := Explore(t, cfg, opts)
	if err != nil {
		return Verdict{}, nil, err
	}
	return rep.Verdict(t), rep, nil
}
