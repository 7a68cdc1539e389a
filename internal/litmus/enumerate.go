package litmus

import (
	"bytes"
	"context"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/mem"
)

// This file systematically generates every litmus-test shape up to a
// small size from the DSL's instruction alphabet, for the exhaustive
// sweep of `hicsim -suite litmus -enumerate` and the enumeration
// regression tests.
//
// Generated programs use only the annotated synchronization forms plus
// the always-safe raw ops (loads, stores, WB, INV — both WB and INV
// drain dirty words in this machine, and the oracle is purely
// value-based), so every emitted test is violation-free by construction
// and carries ExpectNone with an open (nil) Allowed set. The under-
// annotated variants strip one annotation bundle at a time through
// RawForm; internal/fuzzgen builds and judges those exhaustively.
//
// Termination of every generated program under every schedule is
// guaranteed by construction:
//
//   - critical sections are balanced, non-nested, on a single lock, and
//     contain no blocking op, so any lock holder eventually exits;
//   - a thread awaits flag f only if f was already notified earlier in
//     its own sequence, or some other thread notifies f behind a
//     wait-free prefix (no await, no barrier; CSEnter is fine since
//     critical sections always exit) — flags are only ever set to 1, so
//     the notify is permanent;
//   - barriers gate all engine threads, so every thread must carry the
//     same number of BarrierSync ops, and each inter-barrier segment's
//     awaits satisfy the rule above.
//
// DMA is constrained to stay inside the oracle's model: at most one DMA
// per program, its destination variable is stored by no thread, and its
// source is dirty-clean in the issuing thread at the DMA point (DMA
// reads the shared levels) and stored by no other thread.

// EnumOptions bounds one enumeration.
type EnumOptions struct {
	// MaxOps is the total instruction budget across all threads (k).
	// Default 4.
	MaxOps int
	// MaxThreads bounds the thread count (minimum 2 always). Default 3.
	MaxThreads int
	// Vars and Flags bound the shared-variable and flag alphabets.
	// Defaults 2 and 1.
	Vars  int
	Flags int
	// DMA includes the IDMA op in the alphabet.
	DMA bool
	// Packed additionally emits a packed-layout clone of every test that
	// uses at least two variables and no DMA.
	Packed bool
	// Locks > 0 includes balanced critical sections (on lock 0).
	Locks int
	// Barriers includes BarrierSync (id 0).
	Barriers bool
}

func (o EnumOptions) withDefaults() EnumOptions {
	if o.MaxOps <= 0 {
		o.MaxOps = 4
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 3
	}
	if o.MaxThreads > litmusCores {
		o.MaxThreads = litmusCores
	}
	if o.Vars <= 0 {
		o.Vars = 2
	}
	if o.Flags <= 0 {
		o.Flags = 1
	}
	o.Vars = min(o.Vars, o.MaxOps+1, maxIDs)
	o.Flags = min(o.Flags, o.MaxOps, maxIDs)
	return o
}

// maxIDs bounds the variable and flag alphabets: IDs index uint64 masks
// and fixed-size rename tables. withDefaults clamps both alphabets to
// what a program of MaxOps ops can use contiguously (MaxOps+1 variables,
// since the one DMA is the only two-variable op; MaxOps flags), so below
// 63 ops the clamp drops only IDs that no valid program uses.
const maxIDs = 64

// keySep separates threads in a canonical key; no InstrKind codes to it.
const keySep = 0xff

// enumOp is one abstract instruction of the enumeration alphabet; values
// and registers are assigned when the program is reified into a Test.
type enumOp struct {
	kind InstrKind
	arg  uint8 // variable (memory ops, DMA dest) or flag ID (notify/await)
	src  uint8 // DMA source variable
}

// appendSym appends the op's compact name token: a kind letter and its
// variable or flag ID ("s0", "a1", "d1<0"; "c", "x" and "b" carry none).
func (op enumOp) appendSym(b []byte) []byte {
	var c byte
	switch op.kind {
	case IStore:
		c = 's'
	case ILoad:
		c = 'l'
	case IWB:
		c = 'w'
	case IINV:
		c = 'i'
	case INotifyFlag:
		c = 'n'
	case IAwaitFlag:
		c = 'a'
	case IDMA:
		b = strconv.AppendUint(append(b, 'd'), uint64(op.arg), 10)
		return strconv.AppendUint(append(b, '<'), uint64(op.src), 10)
	case ICSEnter:
		return append(b, 'c')
	case ICSExit:
		return append(b, 'x')
	case IBarrierSync:
		return append(b, 'b')
	default:
		return append(b, '?')
	}
	return strconv.AppendUint(append(b, c), uint64(op.arg), 10)
}

// alphabet builds the op vocabulary for the options.
func (o EnumOptions) alphabet() []enumOp {
	var al []enumOp
	for v := uint8(0); int(v) < o.Vars; v++ {
		al = append(al,
			enumOp{kind: IStore, arg: v},
			enumOp{kind: ILoad, arg: v},
			enumOp{kind: IWB, arg: v},
			enumOp{kind: IINV, arg: v},
		)
	}
	for f := uint8(0); int(f) < o.Flags; f++ {
		al = append(al,
			enumOp{kind: INotifyFlag, arg: f},
			enumOp{kind: IAwaitFlag, arg: f},
		)
	}
	if o.Locks > 0 {
		al = append(al, enumOp{kind: ICSEnter}, enumOp{kind: ICSExit})
	}
	if o.Barriers {
		al = append(al, enumOp{kind: IBarrierSync})
	}
	if o.DMA {
		for dst := uint8(0); int(dst) < o.Vars; dst++ {
			for src := uint8(0); int(src) < o.Vars; src++ {
				if dst != src {
					al = append(al, enumOp{kind: IDMA, arg: dst, src: src})
				}
			}
		}
	}
	return al
}

// enumerator is one Enumerate call's state. The candidate program and
// the key buffers are reused across candidates; emit keeps nothing of
// them but the reified test and the key's string.
type enumerator struct {
	o     EnumOptions
	al    []enumOp
	lens  []int      // each thread's length in the current shape
	prog  [][]enumOp // the candidate, one buffer per thread
	perms [][]int    // every thread order of the current thread count
	seen  map[string]struct{}
	key   []byte // the least code so far (canonicalKey)
	code  []byte // the code under construction
	tests []Test
}

// Enumerate generates every canonical litmus test up to the options'
// bounds. Every test is annotated-by-construction (ExpectNone, open
// outcome set); thread permutations and variable/flag renamings are
// deduplicated to their first-generated representative.
func Enumerate(o EnumOptions) []Test {
	o = o.withDefaults()
	e := &enumerator{o: o, al: o.alphabet(), seen: map[string]struct{}{}}
	// Enumerate thread counts, per-thread lengths, and sequences.
	for n := 2; n <= o.MaxThreads; n++ {
		e.lens = make([]int, n)
		e.prog = make([][]enumOp, n)
		for i := range e.prog {
			e.prog[i] = make([]enumOp, 0, o.MaxOps)
		}
		e.perms = permutations(n)
		for total := n; total <= o.MaxOps; total++ {
			e.fill(0, total)
		}
	}
	return e.tests
}

// fill gives threads i onward a length each, summing to rem, then
// generates their sequences.
func (e *enumerator) fill(i, rem int) {
	n := len(e.lens)
	if i == n {
		if rem == 0 {
			e.build(0)
		}
		return
	}
	// Each thread gets at least one op; leave enough for the rest.
	for l := 1; l <= rem-(n-1-i); l++ {
		e.lens[i] = l
		e.fill(i+1, rem-l)
	}
}

// build generates thread i's sequences and, behind each, the later
// threads', emitting every complete candidate.
func (e *enumerator) build(i int) {
	if i == len(e.prog) {
		e.emit()
		return
	}
	e.gen(i, 0, 0)
}

// gen extends thread i's sequence one op at a time, in alphabet order,
// under the intra-thread rules. depth is the critical-section depth and
// dirty the variables the sequence has dirty (see dirtyAfter).
func (e *enumerator) gen(i, depth int, dirty uint64) {
	seq := e.prog[i]
	if len(seq) == e.lens[i] {
		if depth == 0 { // balanced critical sections only
			e.build(i + 1)
		}
		return
	}
	for _, op := range e.al {
		if !threadStepOK(depth, dirty, op) {
			continue
		}
		d := depth
		switch op.kind {
		case ICSEnter:
			d++
		case ICSExit:
			d--
		}
		e.prog[i] = append(seq, op)
		e.gen(i, d, dirtyAfter(dirty, op))
	}
	e.prog[i] = seq
}

// emit keeps the candidate if it is valid and the first of its symmetry
// class.
func (e *enumerator) emit() {
	if !progValid(e.prog) {
		return
	}
	key := e.canonicalKey()
	if _, dup := e.seen[string(key)]; dup {
		return
	}
	e.seen[string(key)] = struct{}{}
	t := reify(e.prog)
	e.tests = append(e.tests, t)
	if e.o.Packed && t.Vars >= 2 && !usesDMA(e.prog) {
		p := t
		p.Name += "+packed"
		p.Packed = true
		e.tests = append(e.tests, p)
	}
}

// threadStepOK applies the intra-thread validity rules for appending op
// to a sequence at critical-section depth with the dirty variables.
func threadStepOK(depth int, dirty uint64, op enumOp) bool {
	switch op.kind {
	case ICSEnter:
		if depth != 0 {
			return false // non-nested
		}
	case ICSExit:
		if depth != 1 {
			return false // balanced
		}
	case IAwaitFlag, IBarrierSync:
		if depth != 0 {
			return false // no blocking inside a critical section
		}
	case IINV:
		// INV drains dirty words, so it never loses data — but an INV of
		// a variable this thread has dirty would silently publish it,
		// making the "mutant drops a publication" judgment meaningless.
		// Keep INV to clean variables.
		if dirty&(1<<op.arg) != 0 {
			return false
		}
	case IDMA:
		// DMA reads the shared levels: the source must be clean here.
		if dirty&(1<<op.src) != 0 {
			return false
		}
	}
	return true
}

// dirtyAfter returns the thread's locally dirty variables (stored and
// not yet covered by a WB or a WB-ALL-bearing annotated op) after op.
func dirtyAfter(dirty uint64, op enumOp) uint64 {
	switch op.kind {
	case IStore:
		return dirty | 1<<op.arg
	case IWB, IINV:
		return dirty &^ (1 << op.arg) // INV drains dirty words on its way out
	case INotifyFlag, ICSExit, IBarrierSync:
		return 0 // these lower with a WB ALL on the write side
	}
	return dirty
}

// progValid applies the cross-thread validity rules (see the file
// comment): barrier uniformity, await liveness, DMA constraints, and
// contiguous variable/flag use.
func progValid(prog [][]enumOp) bool {
	var (
		barriers [litmusCores]int
		stores   [litmusCores]uint64 // variables each thread stores
		waitFree [litmusCores]uint64 // flags notified before the thread's first await or barrier
		unmet    [litmusCores]uint64 // flags awaited with no earlier notify in the same thread
		vars     uint64
		flags    uint64
		dmas     int
		dma      enumOp
		dmaBy    int
	)
	for ti, seq := range prog {
		var notified uint64
		blocked := false
		for _, op := range seq {
			bit := uint64(1) << op.arg
			switch op.kind {
			case IStore:
				stores[ti] |= bit
				vars |= bit
			case ILoad, IWB, IINV:
				vars |= bit
			case INotifyFlag:
				flags |= bit
				notified |= bit
				if !blocked {
					waitFree[ti] |= bit
				}
			case IAwaitFlag:
				flags |= bit
				unmet[ti] |= bit &^ notified
				blocked = true
			case IBarrierSync:
				barriers[ti]++
				blocked = true
			case IDMA:
				vars |= bit | 1<<op.src
				dmas++
				dma, dmaBy = op, ti
			}
		}
	}

	// Barrier counts must match across every thread. Every await needs a
	// notify: earlier in its own sequence, or in another thread behind a
	// wait-free prefix.
	for ti := range prog {
		if barriers[ti] != barriers[0] {
			return false
		}
		var others uint64
		for tj := range prog {
			if tj != ti {
				others |= waitFree[tj]
			}
		}
		if unmet[ti]&^others != 0 {
			return false
		}
	}

	// DMA: at most one; dest stored by nobody; source stored only by the
	// issuing thread (clean-at-issue is the intra-thread rule).
	if dmas > 1 {
		return false
	}
	if dmas == 1 {
		var stored, storedByOthers uint64
		for tj := range prog {
			stored |= stores[tj]
			if tj != dmaBy {
				storedByOthers |= stores[tj]
			}
		}
		if stored&(1<<dma.arg) != 0 || storedByOthers&(1<<dma.src) != 0 {
			return false
		}
	}

	// Used variables and flags must form prefixes {0..m} so renamings of
	// the same shape are generated once (canonicalKey dedups the rest).
	return vars&(vars+1) == 0 && flags&(flags+1) == 0
}

func usesDMA(prog [][]enumOp) bool {
	for _, seq := range prog {
		for _, op := range seq {
			if op.kind == IDMA {
				return true
			}
		}
	}
	return false
}

// canonicalKey returns the candidate's canonical key, in a buffer reused
// across candidates. Each thread order codes the program as one byte
// per op kind followed by the op's variable or flag IDs, renamed by
// first use in that order's thread-major sequence, with keySep between
// threads; the key is the least code over all orders. The code is
// injective on renamed programs, so two programs share a key exactly
// when one is a thread permutation and variable/flag renaming of the
// other, and dedup by key keeps one representative per symmetry class.
func (e *enumerator) canonicalKey() []byte {
	for pi, order := range e.perms {
		var vars, flags [maxIDs]uint8 // renamed ID + 1; 0 = not yet used
		var nv, nf uint8
		c := e.code[:0]
		for i, ti := range order {
			if i > 0 {
				c = append(c, keySep)
			}
			for _, op := range e.prog[ti] {
				c = append(c, byte(op.kind))
				switch op.kind {
				case IStore, ILoad, IWB, IINV:
					c = append(c, rename(&vars, &nv, op.arg))
				case INotifyFlag, IAwaitFlag:
					c = append(c, rename(&flags, &nf, op.arg))
				case IDMA:
					c = append(c, rename(&vars, &nv, op.arg), rename(&vars, &nv, op.src))
				}
			}
		}
		if pi == 0 || bytes.Compare(c, e.key) < 0 {
			c, e.key = e.key, c
		}
		e.code = c
	}
	return e.key
}

// rename maps id to its first-use index in table, of which n are taken.
func rename(table *[maxIDs]uint8, n *uint8, id uint8) uint8 {
	if table[id] == 0 {
		*n++
		table[id] = *n
	}
	return table[id] - 1
}

// permutations lists every ordering of 0..n-1 (n is at most litmusCores).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := make([]int, 0, n)
			q = append(append(append(q, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// reify turns an abstract program into a runnable Test: store values and
// load registers are assigned in thread-major order, every used variable
// joins Final, the outcome set is open (nil Allowed), and the name is
// the program's rendering.
func reify(prog [][]enumOp) Test {
	t := Test{Expect: ExpectNone, Doc: "enumerated annotated program (violation-free by construction)"}
	total := 0
	for _, seq := range prog {
		total += len(seq)
	}
	instrs := make([]Instr, 0, total) // one backing array, sliced per thread
	name := append(make([]byte, 0, 8+4*total), "enum["...)
	t.Threads = make([][]Instr, len(prog))
	var vars uint64
	val := mem.Word(0)
	for ti, seq := range prog {
		if ti > 0 {
			name = append(name, '|')
		}
		start := len(instrs)
		for j, op := range seq {
			if j > 0 {
				name = append(name, '.')
			}
			name = op.appendSym(name)
			v := VarID(op.arg)
			switch op.kind {
			case IStore:
				val++
				instrs = append(instrs, Store(v, val))
				vars |= 1 << op.arg
			case ILoad:
				instrs = append(instrs, Load(v, Reg(t.Regs)))
				t.Regs++
				vars |= 1 << op.arg
			case IWB:
				instrs = append(instrs, WB(v))
				vars |= 1 << op.arg
			case IINV:
				instrs = append(instrs, INV(v))
				vars |= 1 << op.arg
			case INotifyFlag:
				instrs = append(instrs, NotifyFlag(int(op.arg), 1))
			case IAwaitFlag:
				instrs = append(instrs, AwaitFlag(int(op.arg), 1))
			case ICSEnter:
				instrs = append(instrs, CSEnter(0))
			case ICSExit:
				instrs = append(instrs, CSExit(0))
			case IBarrierSync:
				instrs = append(instrs, BarrierSync(0))
			case IDMA:
				instrs = append(instrs, DMA(v, VarID(op.src), 0))
				vars |= 1<<op.arg | 1<<op.src
			}
		}
		t.Threads[ti] = instrs[start:len(instrs):len(instrs)]
	}
	t.Vars = bits.OnesCount64(vars)
	for v := 0; v < t.Vars; v++ {
		t.Final = append(t.Final, VarID(v))
	}
	t.Name = string(append(name, ']'))
	return t
}

// RawForm is the weakening table for under-annotated mutants: it returns
// in with its annotated sync kind replaced by the raw machine counterpart
// (notify→flag-set, await→flag-wait, cs-enter→acquire, cs-exit→release),
// which keeps the synchronization but drops the WB/INV bundle the config
// lowers around it. Ops without a raw counterpart (the barrier has none
// in the DSL) return ok=false.
func RawForm(in Instr) (Instr, bool) {
	switch in.Kind {
	case INotifyFlag:
		in.Kind = IFlagSet
	case IAwaitFlag:
		in.Kind = IFlagWait
	case ICSEnter:
		in.Kind = IAcquire
	case ICSExit:
		in.Kind = IRelease
	default:
		return Instr{}, false
	}
	return in, true
}

// mutantCount is the number of t's instructions RawForm weakens: one
// mutant per annotated sync site.
func mutantCount(t Test) int {
	n := 0
	for _, seq := range t.Threads {
		for _, in := range seq {
			if _, ok := RawForm(in); ok {
				n++
			}
		}
	}
	return n
}

// SweepStats aggregates one enumeration sweep (Sweep).
type SweepStats struct {
	Programs   int   `json:"programs"`
	Mutants    int   `json:"mutants"`
	Runs       int64 `json:"runs"`
	Schedules  int64 `json:"schedules"`
	DedupCuts  int64 `json:"dedup_cuts"`
	StatesSeen int64 `json:"states_seen"`
	// Violating lists enumerated (non-mutant) tests any of whose
	// schedules violated — must be empty, they are annotated by
	// construction.
	Violating []string `json:"violating,omitempty"`
	// Failed lists tests whose exploration was not exhaustive (errors,
	// truncation, or the schedule cap) — also must be empty.
	Failed []string `json:"failed,omitempty"`
}

// Sweep explores every test (an Enumerate output) under cfg across
// workers goroutines (0 means GOMAXPROCS) and folds the per-program
// statistics in program order, so the result does not depend on the
// worker count. The caller enumerates once and sweeps the same programs
// under every config. Mutants are counted, not explored
// (internal/fuzzgen judges them). Sweep stops between programs once ctx
// is done and returns its error.
func Sweep(ctx context.Context, tests []Test, cfg Config, opts Options, workers int) (SweepStats, error) {
	type program struct {
		runs, schedules, cuts, states int64
		violating                     bool
		failed                        string
	}
	progs := make([]program, len(tests))
	err := forEach(ctx, len(tests), workers, func(i int) {
		p := &progs[i]
		rep, err := Explore(tests[i], cfg, opts)
		if err != nil {
			p.failed = err.Error()
			return
		}
		p.runs, p.schedules = int64(rep.Runs), int64(rep.Schedules)
		p.cuts, p.states = int64(rep.DedupCuts), int64(rep.StatesSeen)
		p.violating = rep.ViolationSchedules > 0
		if rep.ErrorRuns > 0 || rep.Truncated > 0 || rep.Capped {
			p.failed = "exploration not exhaustive"
		}
	})
	if err != nil {
		return SweepStats{}, err
	}
	st := SweepStats{Programs: len(tests)}
	for i, p := range progs {
		t := tests[i]
		st.Mutants += mutantCount(t)
		st.Runs += p.runs
		st.Schedules += p.schedules
		st.DedupCuts += p.cuts
		st.StatesSeen += p.states
		if p.violating {
			st.Violating = append(st.Violating, t.Name)
		}
		if p.failed != "" {
			st.Failed = append(st.Failed, t.Name+": "+p.failed)
		}
	}
	sort.Strings(st.Violating)
	sort.Strings(st.Failed)
	return st, nil
}
